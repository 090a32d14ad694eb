// Package crpdaemon implements the CRP positioning daemon behind cmd/crpd:
// a JSON-over-UDP front end to a crp.Service, built for concurrent load.
//
// Requests are read by a single socket loop and dispatched to one of two
// bounded worker pools: cheap ops (observe, similarity, closest, ...) and
// heavy ops (the SMF clustering queries), so a burst of clustering requests
// cannot head-of-line-block the sub-millisecond queries. Every request
// carries a deadline from the moment it is read; requests that overstay it
// — in the queue or in a handler — get a structured timeout reply instead
// of a silent drop. Close follows the managed-goroutine pattern of
// dnsserver.Server: idempotent, stops the socket loop, and drains queued
// and in-flight handlers before returning.
//
// Every stage is instrumented through internal/obs: per-op request/error
// counts and latency histograms, an in-flight gauge, and counters for the
// failure paths (socket errors, queue rejections, timeouts, oversized
// replies). The "stats" op exports the registry snapshot to clients.
package crpdaemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/crp"
	"repro/internal/drift"
	"repro/internal/obs"
	"repro/internal/peering"
)

// Request is the union of all operation payloads, one JSON object per UDP
// datagram.
type Request struct {
	Op       string   `json:"op"`
	Node     string   `json:"node,omitempty"`
	Replicas []string `json:"replicas,omitempty"`
	A        string   `json:"a,omitempty"`
	B        string   `json:"b,omitempty"`
	Client   string   `json:"client,omitempty"`
	// Candidates must NOT be omitempty: an explicit empty list ("no
	// candidates") and an absent field ("rank against every known node")
	// are different closest queries, and omitempty would erase an empty
	// non-nil list on the marshal side, silently turning it into the
	// all-nodes query. nil still marshals as null, which decodes back to
	// nil, so both states survive the wire.
	Candidates []string `json:"candidates"`
	K          int      `json:"k,omitempty"`
	N          int      `json:"n,omitempty"`
	// Threshold is a pointer so that an explicit 0 — a valid SMF boundary
	// threshold — is distinguishable from an absent field (which means
	// crp.DefaultThreshold).
	Threshold *float64 `json:"threshold,omitempty"`
	// Addr is the gossip address of the peer to join (peer-join).
	Addr string `json:"addr,omitempty"`
	// NS scopes a ratio_map, similarity or closest query to one CDN
	// namespace: only that CDN's redirections contribute to the answer.
	// Empty (the default) keeps the unscoped semantics — the fused kernel
	// when the service has fusion enabled, the plain cosine otherwise.
	NS string `json:"ns,omitempty"`
	// Batch carries the sub-requests of op "batch": one datagram, N
	// queries, one reply with N results in order. Sub-requests are
	// individually bounded and cannot themselves be batches.
	Batch []Request `json:"batch,omitempty"`
}

// Response is the generic reply envelope.
type Response struct {
	OK         bool                  `json:"ok"`
	Error      string                `json:"error,omitempty"`
	TimedOut   bool                  `json:"timedOut,omitempty"`
	Similarity *float64              `json:"similarity,omitempty"`
	RatioMap   map[string]float64    `json:"ratioMap,omitempty"`
	Nodes      []string              `json:"nodes,omitempty"`
	Ranked     []RankedNode          `json:"ranked,omitempty"`
	Stats      *obs.Snapshot         `json:"stats,omitempty"`
	Peering    *peering.StatusReport `json:"peering,omitempty"`
	Drift      *drift.Status         `json:"drift,omitempty"`
	// Batch carries the sub-responses of a batch request, in request order.
	Batch []Response `json:"batch,omitempty"`
}

// RankedNode is one entry of a "closest" reply.
type RankedNode struct {
	Node       string  `json:"node"`
	Similarity float64 `json:"similarity"`
}

// MaxReplySize is the largest reply the daemon will put on the wire: the
// IPv4 UDP payload limit. Larger replies (e.g., a ratio map over tens of
// thousands of replicas) would be rejected by the kernel after the fact, so
// the daemon detects them and answers with a structured error instead.
const MaxReplySize = 65507

// Config tunes the daemon. The zero value picks production defaults.
type Config struct {
	// CheapWorkers is the pool size for cheap ops (default max(4, NumCPU)).
	CheapWorkers int
	// HeavyWorkers is the pool size for clustering ops
	// (default max(1, NumCPU/2)).
	HeavyWorkers int
	// QueueDepth bounds each pool's backlog (default 256). A full queue
	// rejects with a structured "server busy" error rather than stalling
	// the socket loop.
	QueueDepth int
	// Timeout is the per-request deadline, measured from the moment the
	// datagram is read (default 5s). Requests that exceed it — waiting or
	// executing — receive {"ok":false,"timedOut":true,...}.
	Timeout time.Duration
	// Registry receives the daemon's instruments (default obs.Default()).
	Registry *obs.Registry
	// Now is the daemon's clock (default time.Now; injectable for tests).
	Now func() time.Time
	// Hook, when non-nil, runs at the start of every handler with the
	// request op. Test-only seam for holding handlers in flight.
	Hook func(op string)
	// Peering, when non-nil, is the daemon's gossip engine; it enables the
	// peer-join and peer-status ops. The caller owns its lifecycle (Start,
	// Close, sockets) — the daemon only exposes it over the query protocol.
	Peering *peering.Peering
	// Drift, when non-nil, is the daemon's CDN-change detector; it enables
	// the drift-status op. As with Peering, the caller owns its lifecycle
	// (Start, Close) — the daemon only serves its report.
	Drift *drift.Monitor
}

func (c *Config) fillDefaults() {
	if c.CheapWorkers <= 0 {
		c.CheapWorkers = max(4, runtime.NumCPU())
	}
	if c.HeavyWorkers <= 0 {
		c.HeavyWorkers = max(1, runtime.NumCPU()/2)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// task is one admitted request moving through a worker pool.
type task struct {
	req      Request
	from     net.Addr
	deadline time.Time
	// bin records the request's codec; the reply goes back the same way.
	bin bool
}

// Daemon serves a crp.Service over a PacketConn. Create it with Serve and
// stop it with Close.
type Daemon struct {
	svc *crp.Service
	cfg Config
	reg *obs.Registry
	now func() time.Time
	pc  net.PacketConn

	cheapQ chan task
	heavyQ chan task

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error

	// writeMu serializes WriteTo calls. PacketConn writes are documented as
	// concurrency-safe, but serializing keeps reply interleaving fair under
	// heavy fan-out and gives the write-error counter a stable meaning.
	writeMu sync.Mutex

	inflight     *obs.Gauge
	readErrs     *obs.Counter
	writeErrs    *obs.Counter
	badReqs      *obs.Counter
	oversizeReqs *obs.Counter
	rejected     *obs.Counter
	timeouts     *obs.Counter
	oversized    *obs.Counter
	reqCount     map[string]*obs.Counter
	errCount     map[string]*obs.Counter
	latency      map[string]*obs.Histogram
}

// ops is the full operation set; heavy ops run a full SMF clustering pass
// over every known node and get their own pool.
var ops = map[string]bool{ // op -> heavy
	"observe":           false,
	"ratio_map":         false,
	"similarity":        false,
	"closest":           false,
	"nodes":             false,
	"stats":             false,
	"same_cluster":      true,
	"distinct_clusters": true,
	"peer-join":         false,
	"peer-status":       false,
	"drift-status":      false,
	// A batch runs as one unit; batchHeavy reclassifies it per datagram.
	"batch": false,
}

// batchHeavy reports whether any sub-request routes to the heavy pool: one
// clustering sub-query makes the whole datagram heavy, since the batch runs
// as one unit and must not head-of-line-block the cheap pool.
func batchHeavy(req *Request) bool {
	for i := range req.Batch {
		if ops[req.Batch[i].Op] {
			return true
		}
	}
	return false
}

// New builds a socketless daemon: Handle serves requests synchronously with
// full instrumentation, but no worker pools or read loop exist and no socket
// is owned. The deterministic scenario harness embeds daemons this way so a
// single-threaded driver sees a fixed execution order. Close is a no-op for
// a socketless daemon.
func New(svc *crp.Service, cfg Config) (*Daemon, error) {
	if svc == nil {
		return nil, errors.New("crpdaemon: nil Service")
	}
	cfg.fillDefaults()
	d := &Daemon{
		svc:    svc,
		cfg:    cfg,
		reg:    cfg.Registry,
		now:    cfg.Now,
		closed: make(chan struct{}),

		inflight:     cfg.Registry.Gauge("crpd.inflight"),
		readErrs:     cfg.Registry.Counter("crpd.read_errors"),
		writeErrs:    cfg.Registry.Counter("crpd.write_errors"),
		badReqs:      cfg.Registry.Counter("crpd.bad_requests"),
		oversizeReqs: cfg.Registry.Counter("crpd.oversized_requests"),
		rejected:     cfg.Registry.Counter("crpd.rejected"),
		timeouts:     cfg.Registry.Counter("crpd.timeouts"),
		oversized:    cfg.Registry.Counter("crpd.oversized_replies"),
		reqCount:     make(map[string]*obs.Counter, len(ops)),
		errCount:     make(map[string]*obs.Counter, len(ops)),
		latency:      make(map[string]*obs.Histogram, len(ops)),
	}
	for op := range ops {
		d.reqCount[op] = cfg.Registry.Counter("crpd.requests." + op)
		d.errCount[op] = cfg.Registry.Counter("crpd.errors." + op)
		d.latency[op] = cfg.Registry.Histogram("crpd.latency."+op, nil)
	}
	return d, nil
}

// Serve starts answering datagrams arriving on pc. The daemon owns pc after
// this call and closes it in Close.
func Serve(pc net.PacketConn, svc *crp.Service, cfg Config) (*Daemon, error) {
	if pc == nil {
		return nil, errors.New("crpdaemon: nil PacketConn")
	}
	d, err := New(svc, cfg)
	if err != nil {
		return nil, err
	}
	d.pc = pc
	d.cheapQ = make(chan task, d.cfg.QueueDepth)
	d.heavyQ = make(chan task, d.cfg.QueueDepth)

	for i := 0; i < d.cfg.CheapWorkers; i++ {
		d.wg.Add(1)
		go d.worker(d.cheapQ)
	}
	for i := 0; i < d.cfg.HeavyWorkers; i++ {
		d.wg.Add(1)
		go d.worker(d.heavyQ)
	}
	d.wg.Add(1)
	go d.readLoop()
	return d, nil
}

// Addr returns the daemon's listening address (nil for a socketless daemon).
func (d *Daemon) Addr() net.Addr {
	if d.pc == nil {
		return nil
	}
	return d.pc.LocalAddr()
}

// Close stops the daemon: no new requests are admitted, queued requests are
// drained through the pools, and Close returns once every in-flight handler
// has finished. It is safe to call concurrently and repeatedly.
func (d *Daemon) Close() error {
	d.closeOnce.Do(func() {
		close(d.closed)
		if d.pc != nil {
			d.closeErr = d.pc.Close()
		}
	})
	d.wg.Wait()
	return d.closeErr
}

// readLoop is the single socket reader: it parses, classifies and admits
// requests. A failed read or an unparseable datagram never terminates the
// loop — only closing the daemon does.
func (d *Daemon) readLoop() {
	defer d.wg.Done()
	// Workers exit when their queue is closed and drained; only readLoop
	// sends on the queues, so it closes them on the way out.
	defer close(d.cheapQ)
	defer close(d.heavyQ)

	// One byte over the request bound: a datagram that fills a
	// MaxRequestSize buffer exactly would be indistinguishable from a
	// kernel-truncated larger one, so the extra byte makes oversize
	// detectable and the loop rejects it without decoding truncated bytes.
	buf := make([]byte, MaxRequestSize+1)
	for {
		n, from, err := d.pc.ReadFrom(buf)
		if err != nil {
			select {
			case <-d.closed:
				return
			default:
			}
			// A transient socket error (ICMP-induced, buffer pressure, a
			// spurious deadline) must not take the daemon down: count it
			// and keep serving. Only a vanished socket ends the loop.
			if errors.Is(err, net.ErrClosed) {
				return
			}
			d.readErrs.Inc()
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			// Back off briefly so a persistently failing socket cannot
			// spin the loop hot.
			time.Sleep(time.Millisecond)
			continue
		}
		if n > MaxRequestSize {
			d.oversizeReqs.Inc()
			bin := buf[0] == binMagic
			d.reply(from, Response{Error: fmt.Sprintf(
				"request too large: exceeds the %d-byte limit", MaxRequestSize)}, bin)
			continue
		}

		req, bin, err := decodeRequest(buf[:n])
		if err != nil {
			d.badReqs.Inc()
			d.reply(from, Response{Error: err.Error()}, bin)
			continue
		}
		heavy, known := ops[req.Op]
		if !known {
			d.badReqs.Inc()
			d.reply(from, Response{Error: fmt.Sprintf("unknown op %q", req.Op)}, bin)
			continue
		}
		if req.Op == "batch" {
			heavy = batchHeavy(&req)
		}

		q := d.cheapQ
		if heavy {
			q = d.heavyQ
		}
		t := task{req: req, from: from, deadline: d.now().Add(d.cfg.Timeout), bin: bin}
		select {
		case q <- t:
		default:
			d.rejected.Inc()
			d.errCount[req.Op].Inc()
			d.reply(from, Response{Error: fmt.Sprintf("server busy: %s queue full", req.Op)}, bin)
		}
	}
}

func (d *Daemon) worker(q chan task) {
	defer d.wg.Done()
	for t := range q {
		d.process(t)
	}
}

func (d *Daemon) process(t task) {
	d.reply(t.from, d.serve(t.req, t.deadline), t.bin)
}

// serve is the one instrumented request step behind both entry points: the
// worker path (process) and the synchronous path (Handle) count, time and
// dispatch a request identically. A zero deadline means none; otherwise a
// request that aged out in the queue, or whose handler finished late, gets a
// structured timeout in place of its answer.
func (d *Daemon) serve(req Request, deadline time.Time) Response {
	op := req.Op
	d.inflight.Inc()
	defer d.inflight.Dec()
	d.reqCount[op].Inc()

	if d.cfg.Hook != nil {
		d.cfg.Hook(op)
	}

	start := d.now()
	if !deadline.IsZero() && !start.Before(deadline) {
		// The request aged out waiting in the queue; don't burn a worker
		// computing an answer the client has stopped waiting for.
		d.timeouts.Inc()
		d.errCount[op].Inc()
		return Response{
			Error:    fmt.Sprintf("deadline exceeded: %s queued longer than %v", op, d.cfg.Timeout),
			TimedOut: true,
		}
	}

	resp := d.dispatch(req)
	elapsed := d.now().Sub(start)
	d.latency[op].ObserveDuration(elapsed)
	if !resp.OK {
		d.errCount[op].Inc()
	}
	if end := start.Add(elapsed); !deadline.IsZero() && end.After(deadline) {
		// The handler finished past the deadline: reply with a structured
		// timeout so the client can tell "slow server" from packet loss.
		d.timeouts.Inc()
		if resp.OK {
			d.errCount[op].Inc()
		}
		resp = Response{
			Error:    fmt.Sprintf("deadline exceeded: %s took %v (limit %v)", op, elapsed.Round(time.Microsecond), d.cfg.Timeout),
			TimedOut: true,
		}
	}
	return resp
}

// reply encodes one response in the request's codec — bounded by
// encodeBounded — and sends it, counting (not propagating) write failures:
// a failed reply to one client must never take down the service.
func (d *Daemon) reply(to net.Addr, resp Response, bin bool) {
	wire := d.encodeBounded(resp, bin)
	d.writeMu.Lock()
	_, err := d.pc.WriteTo(wire, to)
	d.writeMu.Unlock()
	if err != nil {
		select {
		case <-d.closed:
			// Shutdown-path write failures are expected, not signal.
		default:
			d.writeErrs.Inc()
		}
	}
}

// encodeBounded encodes resp in the chosen codec and enforces the reply
// ceiling. A too-large batch reply degrades deterministically: the largest
// encoded sub-response (lowest index on ties) is replaced with a structured
// error stub until the envelope fits, so the remaining sub-results still
// reach the client. A too-large single reply becomes the structured
// oversize error, as before.
func (d *Daemon) encodeBounded(resp Response, bin bool) []byte {
	wire := encodeResponse(&resp, bin)
	if len(wire) <= MaxReplySize {
		return wire
	}
	d.oversized.Inc()
	if len(resp.Batch) > 0 {
		replaced := make([]bool, len(resp.Batch))
		for {
			largest, size := -1, 0
			for i := range resp.Batch {
				if replaced[i] {
					continue
				}
				if n := len(encodeResponse(&resp.Batch[i], bin)); n > size {
					largest, size = i, n
				}
			}
			if largest < 0 {
				break
			}
			resp.Batch[largest] = Response{Error: fmt.Sprintf(
				"response too large: sub-response was %d bytes; narrow the query", size)}
			replaced[largest] = true
			if wire = encodeResponse(&resp, bin); len(wire) <= MaxReplySize {
				return wire
			}
		}
	}
	return encodeResponse(&Response{
		Error: fmt.Sprintf("response too large: %d bytes exceeds the %d-byte UDP limit; narrow the query", len(wire), MaxReplySize),
	}, bin)
}

// Handle processes one raw request and returns the encoded reply in the
// request's codec, applying the same oversize policy as the wire path. It
// is the synchronous core used by unit tests and by callers embedding the
// daemon in-process.
func (d *Daemon) Handle(raw []byte) []byte {
	req, bin, err := decodeRequest(raw)
	if err != nil {
		d.badReqs.Inc()
		return d.encodeBounded(Response{Error: err.Error()}, bin)
	}
	if _, known := ops[req.Op]; !known {
		d.badReqs.Inc()
		return d.encodeBounded(Response{Error: fmt.Sprintf("unknown op %q", req.Op)}, bin)
	}
	return d.encodeBounded(d.serve(req, time.Time{}), bin)
}

func (d *Daemon) dispatch(req Request) Response {
	fail := func(err error) Response { return Response{Error: err.Error()} }
	cfg := crp.ClusterConfig{Threshold: crp.DefaultThreshold, SecondPass: true}
	if req.Threshold != nil {
		// Presence-detected: an explicit 0 is the valid boundary threshold,
		// not a request for the default.
		cfg.Threshold = *req.Threshold
	}

	if req.NS != "" {
		switch req.Op {
		case "ratio_map", "similarity", "closest":
		default:
			return Response{Error: fmt.Sprintf("op %q does not support ns scoping", req.Op)}
		}
	}

	switch req.Op {
	case "batch":
		// One datagram, N queries, N results in request order. The envelope
		// is OK; each sub-response carries its own verdict.
		out := make([]Response, len(req.Batch))
		for i := range req.Batch {
			out[i] = d.dispatch(req.Batch[i])
		}
		return Response{OK: true, Batch: out}

	case "observe":
		replicas := make([]crp.ReplicaID, len(req.Replicas))
		for i, r := range req.Replicas {
			replicas[i] = crp.ReplicaID(r)
		}
		if err := d.svc.Observe(crp.NodeID(req.Node), d.now(), replicas...); err != nil {
			return fail(err)
		}
		return Response{OK: true}

	case "ratio_map":
		var m crp.RatioMap
		var err error
		if req.NS != "" {
			m, err = d.svc.RatioMapIn(crp.Namespace(req.NS), crp.NodeID(req.Node))
		} else {
			m, err = d.svc.RatioMap(crp.NodeID(req.Node))
		}
		if err != nil {
			return fail(err)
		}
		out := make(map[string]float64, len(m))
		for r, f := range m {
			out[string(r)] = f
		}
		return Response{OK: true, RatioMap: out}

	case "similarity":
		var sim float64
		var err error
		if req.NS != "" {
			sim, err = d.svc.SimilarityIn(crp.Namespace(req.NS), crp.NodeID(req.A), crp.NodeID(req.B))
		} else {
			sim, err = d.svc.Similarity(crp.NodeID(req.A), crp.NodeID(req.B))
		}
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, Similarity: &sim}

	case "closest":
		k := req.K
		if k <= 0 {
			k = 1
		}
		// Preserve the nil-vs-empty distinction across the wire: an absent
		// candidates field means "rank against every known node" (TopK's nil
		// semantics), while an explicit empty list means "no candidates".
		var cands []crp.NodeID
		if req.Candidates != nil {
			cands = make([]crp.NodeID, len(req.Candidates))
			for i, c := range req.Candidates {
				cands[i] = crp.NodeID(c)
			}
		}
		var ranked []crp.Scored
		var err error
		if req.NS != "" {
			ranked, err = d.svc.TopKIn(crp.Namespace(req.NS), crp.NodeID(req.Client), cands, k)
		} else {
			ranked, err = d.svc.TopK(crp.NodeID(req.Client), cands, k)
		}
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, Ranked: toRanked(ranked)}

	case "same_cluster":
		peers, err := d.svc.SameCluster(crp.NodeID(req.Node), cfg)
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, Nodes: toStrings(peers)}

	case "distinct_clusters":
		n := req.N
		if n <= 0 {
			n = 1
		}
		nodes, err := d.svc.DistinctClusters(n, cfg)
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, Nodes: toStrings(nodes)}

	case "nodes":
		return Response{OK: true, Nodes: toStrings(d.svc.Nodes())}

	case "stats":
		snap := d.reg.Snapshot()
		// The per-shard node gauges scale with the store width (up to 1024
		// shards); at the wide end the raw family alone overflows the UDP
		// reply budget, so the exported copy carries a six-field summary
		// instead. The in-process registry keeps the full family.
		snap.SummarizeGaugeFamily("crp.service.shard.", ".nodes", "crp.service.shard_nodes")
		// Same treatment for the per-namespace families a fused multi-CDN
		// deployment grows: however many namespaces the service has seen,
		// the exported reply carries one six-field summary per family.
		snap.SummarizeGaugeFamily("crp.service.ns.", ".observes", "crp.service.ns_observes")
		snap.SummarizeGaugeFamily("cdn.ns.", ".replicas", "cdn.ns_replicas")
		return Response{OK: true, Stats: &snap}

	case "peer-join":
		if d.cfg.Peering == nil {
			return Response{Error: "peering disabled: daemon started without a gossip engine"}
		}
		if req.Addr == "" {
			return Response{Error: "peer-join requires addr"}
		}
		if err := d.cfg.Peering.Join(req.Addr); err != nil {
			return fail(err)
		}
		return Response{OK: true}

	case "peer-status":
		if d.cfg.Peering == nil {
			return Response{Error: "peering disabled: daemon started without a gossip engine"}
		}
		st := d.cfg.Peering.Status()
		return Response{OK: true, Peering: &st}

	case "drift-status":
		if d.cfg.Drift == nil {
			return Response{Error: "drift disabled: daemon started without a drift monitor"}
		}
		st := d.cfg.Drift.Status()
		return Response{OK: true, Drift: &st}

	default:
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

func toStrings(ids []crp.NodeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return out
}

func toRanked(scored []crp.Scored) []RankedNode {
	out := make([]RankedNode, len(scored))
	for i, s := range scored {
		out[i] = RankedNode{Node: string(s.Node), Similarity: s.Similarity}
	}
	return out
}

func marshal(resp Response) []byte {
	b, err := json.Marshal(resp)
	if err != nil {
		// The Response type contains nothing unmarshalable; this is
		// unreachable, but fail closed with a static error.
		return []byte(`{"ok":false,"error":"internal marshal failure"}`)
	}
	return b
}
