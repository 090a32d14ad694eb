package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"time"

	"repro/internal/crpdaemon"
)

// replyTimeout is how long a generator waits for one reply before it counts
// the request as failed. Loopback never drops a closed loop's datagram, so
// in practice this bounds a stall, not a loss.
const replyTimeout = 2 * time.Second

// stream is one deterministic request sequence: the same seed and tag give
// the same bytes.
type stream struct {
	next  func() []byte                    // the next encoded request
	valid func(*crpdaemon.Response) string // "" when the reply is a well-formed answer
	units int                              // primary-op units one request carries
}

// laneSpec is one connection's load: a closed loop when interval is 0,
// otherwise an open loop that sends one request every interval.
type laneSpec struct {
	s        *stream
	interval time.Duration
}

// load is a workload's streams: a closed loop each for the primary ones and,
// where there is one, the open-loop background stream.
type load struct {
	primary []*stream
	bg      *stream
}

// lanes lists the primary lanes, then the background lane.
func (l load) lanes(bgInterval time.Duration) []laneSpec {
	var specs []laneSpec
	for _, s := range l.primary {
		specs = append(specs, laneSpec{s: s})
	}
	if l.bg != nil {
		specs = append(specs, laneSpec{s: l.bg, interval: bgInterval})
	}
	return specs
}

// laneStats is what one lane measured over one phase.
type laneStats struct {
	lat        []uint32 // ns; closed loop: send → decoded valid reply; open loop: due → decoded valid reply
	late       []uint32 // ns; open loop only: how long after it was due each request was sent
	attempted  int64
	failed     int64
	units      int64
	reqBytes   int64
	replyBytes int64
	last       time.Time // completion of the last request
	firstErr   string

	// marks[i] is where second i of the phase begins in lat, and sliceUnits[i]
	// the units completed in it.
	marks      []int
	sliceUnits []int64
}

// record adds one answered request (or gossip cycle) that completed at
// sinceStart into the phase and took lat.
func (ls *laneStats) record(sinceStart, lat time.Duration, units int) {
	for sl := int(sinceStart / sliceLen); len(ls.marks) <= sl; {
		ls.marks, ls.sliceUnits = append(ls.marks, len(ls.lat)), append(ls.sliceUnits, 0)
	}
	ls.sliceUnits[len(ls.sliceUnits)-1] += int64(units)
	ls.lat = append(ls.lat, clampNS(lat))
	ls.units += int64(units)
}

func (ls *laneStats) fail(msg string) {
	ls.failed++
	if ls.firstErr == "" {
		ls.firstErr = msg
	}
}

// udpClient is one connected loopback socket speaking the binary codec.
type udpClient struct {
	conn *net.UDPConn
	buf  []byte
}

func dial(addr net.Addr) (*udpClient, error) {
	conn, err := net.DialUDP("udp", nil, addr.(*net.UDPAddr))
	if err != nil {
		return nil, fmt.Errorf("dial daemon: %w", err)
	}
	return &udpClient{conn: conn, buf: make([]byte, crpdaemon.MaxReplySize+1)}, nil
}

// exchange sends one encoded request and returns the decoded reply and its
// size on the wire.
func (c *udpClient) exchange(raw []byte) (crpdaemon.Response, int, error) {
	if _, err := c.conn.Write(raw); err != nil {
		return crpdaemon.Response{}, 0, err
	}
	if err := c.conn.SetReadDeadline(time.Now().Add(replyTimeout)); err != nil {
		return crpdaemon.Response{}, 0, err
	}
	n, err := c.conn.Read(c.buf)
	if err != nil {
		return crpdaemon.Response{}, 0, err
	}
	resp, _, err := crpdaemon.DecodeResponse(c.buf[:n])
	return resp, n, err
}

// ask encodes and sends one request outside any measured loop (checks, the
// warm-up query, the stats op).
func (c *udpClient) ask(req *crpdaemon.Request, bin bool) (crpdaemon.Response, error) {
	raw, err := crpdaemon.EncodeRequest(req, bin)
	if err != nil {
		return crpdaemon.Response{}, err
	}
	resp, _, err := c.exchange(raw)
	if err == nil && !resp.OK {
		err = errors.New(resp.Error)
	}
	return resp, err
}

// run drives one lane until the deadline and appends what it saw to ls.
func (c *udpClient) run(spec laneSpec, start, until time.Time, ls *laneStats) {
	for i := 0; ; i++ {
		due := time.Now()
		if spec.interval > 0 {
			due = start.Add(time.Duration(i) * spec.interval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
		}
		if !due.Before(until) {
			return
		}
		raw := spec.s.next()
		sent := time.Now()
		if spec.interval > 0 {
			ls.late = append(ls.late, clampNS(sent.Sub(due)))
		} else {
			due = sent
		}
		resp, n, err := c.exchange(raw)
		done := time.Now()
		ls.attempted++
		ls.last = done
		if err == nil {
			if msg := spec.s.valid(&resp); msg != "" {
				err = errors.New(msg)
			}
		}
		if err != nil {
			ls.fail(err.Error())
			continue
		}
		ls.record(done.Sub(start), done.Sub(due), spec.s.units)
		ls.reqBytes += int64(len(raw))
		ls.replyBytes += int64(n)
	}
}

func clampNS(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}

// streamHash folds the first n requests of every stream into 48 bits, which
// a JSON number carries exactly. Streams are functions of (seed, tag), so a
// fresh instance replays what the load lanes send.
func streamHash(l load, n int) uint64 {
	h := fnv.New64a()
	for _, lane := range l.lanes(0) {
		for i := 0; i < n; i++ {
			h.Write(lane.s.next())
		}
	}
	return h.Sum64() & (1<<48 - 1)
}

func mustEncode(req *crpdaemon.Request) []byte {
	raw, err := crpdaemon.EncodeRequest(req, true)
	if err != nil {
		// Every request the harness builds is within the wire bounds.
		panic(fmt.Sprintf("benchmark built an unencodable request: %v", err))
	}
	return raw
}

func validBatch(n int) func(*crpdaemon.Response) string {
	return func(r *crpdaemon.Response) string {
		if !r.OK || len(r.Batch) != n {
			return fmt.Sprintf("batch reply: ok=%v with %d of %d results: %s", r.OK, len(r.Batch), n, r.Error)
		}
		for i := range r.Batch {
			if !r.Batch[i].OK {
				return fmt.Sprintf("batch[%d]: %s", i, r.Batch[i].Error)
			}
		}
		return ""
	}
}

func validRanked(k int) func(*crpdaemon.Response) string {
	return func(r *crpdaemon.Response) string {
		if !r.OK || len(r.Ranked) != k {
			return fmt.Sprintf("closest reply: ok=%v with %d of %d ranked: %s", r.OK, len(r.Ranked), k, r.Error)
		}
		return ""
	}
}

func validSimilarity(r *crpdaemon.Response) string {
	if !r.OK || r.Similarity == nil || *r.Similarity < 0 || *r.Similarity > 1+1e-9 {
		return fmt.Sprintf("similarity reply: ok=%v value=%v: %s", r.OK, r.Similarity, r.Error)
	}
	return ""
}

// similarityStream asks for the similarity of two random distinct nodes.
func (w *metroWorld) similarityStream(rng *rand.Rand) *stream {
	return &stream{units: 1, valid: validSimilarity, next: func() []byte {
		a := rng.Intn(len(w.nodes))
		b := rng.Intn(len(w.nodes) - 1)
		if b >= a {
			b++
		}
		return mustEncode(&crpdaemon.Request{Op: "similarity", A: w.nodes[a], B: w.nodes[b]})
	}}
}

// scanStream ranks a random node against every known node.
func (w *metroWorld) scanStream(rng *rand.Rand, k int) *stream {
	return &stream{units: 1, valid: validRanked(k), next: func() []byte {
		return mustEncode(&crpdaemon.Request{Op: "closest", Client: w.nodes[rng.Intn(len(w.nodes))], K: k})
	}}
}

// ingestStream sends batch frames of observes, each a fresh probe of a
// random node. A mirrored stream records its probes in the world's mirror as
// it generates them; the instance that only feeds the stream hash does not.
func (w *metroWorld) ingestStream(rng *rand.Rand, frame int, mirrored bool) *stream {
	return &stream{units: frame, valid: validBatch(frame), next: func() []byte {
		batch := make([]crpdaemon.Request, frame)
		for j := range batch {
			i := rng.Intn(len(w.nodes))
			p := w.draw(rng, i)
			if mirrored {
				w.observed(i, p)
			}
			replicas := make([]string, len(p))
			for r := range p {
				replicas[r] = w.replicas[p[r]]
			}
			batch[j] = crpdaemon.Request{Op: "observe", Node: w.nodes[i], Replicas: replicas}
		}
		return mustEncode(&crpdaemon.Request{Op: "batch", Batch: batch})
	}}
}

// closestStream ranks every candidate server for a random client.
func (w *aggWorld) closestStream(rng *rand.Rand, k int) *stream {
	return &stream{units: 1, valid: validRanked(k), next: func() []byte {
		return mustEncode(&crpdaemon.Request{Op: "closest", Client: w.addr(rng.Intn(w.sz.aggClients)), Candidates: w.cands, K: k})
	}}
}

// ingestStream sends batch frames of fresh probes of random clients, drawn
// past the seeded probe indices from the same per-client profile.
func (w *aggWorld) ingestStream(rng *rand.Rand, frame int) *stream {
	return &stream{units: frame, valid: validBatch(frame), next: func() []byte {
		batch := make([]crpdaemon.Request, frame)
		for j := range batch {
			i := rng.Intn(w.sz.aggClients)
			r := w.replica(i, aggProbesPer+rng.Intn(4))
			batch[j] = crpdaemon.Request{Op: "observe", Node: w.addr(i), Replicas: []string{string(r)}}
		}
		return mustEncode(&crpdaemon.Request{Op: "batch", Batch: batch})
	}}
}
