// Package crpdaemon implements the CRP positioning daemon behind cmd/crpd:
// a UDP front end to a crp.Service, built for concurrent load.
//
// A request datagram is one JSON object or one binary frame (magic byte
// 0xCB, see binwire.go); the reply goes back in the request's codec. Op
// "batch" carries up to MaxBatch sub-requests in one datagram and gets one
// reply with their results in order. An optional "ns" scopes ratio_map,
// similarity and closest to one CDN namespace.
//
// Requests are read by socket readers (one per GOMAXPROCS on a
// *net.UDPConn, one on any other PacketConn) and dispatched to one of two
// bounded worker pools: cheap ops (observe, similarity, closest, ...) and
// heavy ops (the SMF clustering queries), so a burst of clustering requests
// cannot head-of-line-block the sub-millisecond queries. On a *net.UDPConn
// the readers address datagrams as netip.AddrPort values, and every reader
// and worker encodes its replies into a buffer it keeps, so the hop around
// a handler allocates nothing of its own. Every request carries a deadline
// from the moment it is read; requests that overstay it — in the queue or
// in a handler — get a structured timeout reply instead of a silent drop.
// Close is idempotent: it stops the readers and drains queued and in-flight
// handlers before returning.
//
// Every stage is instrumented through internal/obs: per-op request/error
// counts and latency histograms, an in-flight gauge, and counters for the
// failure paths (socket errors, queue rejections, timeouts, oversized
// replies). The "stats" op exports the registry snapshot to clients.
package crpdaemon

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
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

// maxKeptReply is the largest reply buffer a reader or worker keeps for its
// next reply. A similarity, closest or observe-batch reply is tens to
// hundreds of bytes; a stats or ratio_map reply can reach MaxReplySize, and
// keeping that would pin 64 KB per goroutine.
const maxKeptReply = 4 << 10

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
	// the socket readers.
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

// opcode indexes opTable. Below opBatch it is also the op's binary wire
// code, so those rows never move.
type opcode uint8

// opRow is everything the daemon knows about one op.
type opRow struct {
	name  string
	heavy bool // a full SMF clustering pass over every node: the heavy pool
	ns    bool // accepts ns scoping
	run   func(d *Daemon, req Request) Response
}

// opBatch is the row of op "batch". It has no wire opcode — the binary
// codec frames a batch by its kind byte — and no handler: dispatch runs
// its sub-requests. It is the last row, so every index below it is a wire
// opcode; a new op takes its index and batch moves up.
const opBatch opcode = 11

// opTable is crpd's operation set, one row per op.
var opTable = [...]opRow{
	{name: "observe", run: (*Daemon).observe},
	{name: "ratio_map", ns: true, run: (*Daemon).ratioMap},
	{name: "similarity", ns: true, run: (*Daemon).similarity},
	{name: "closest", ns: true, run: (*Daemon).closest},
	{name: "nodes", run: (*Daemon).nodes},
	{name: "stats", run: (*Daemon).stats},
	{name: "same_cluster", heavy: true, run: (*Daemon).sameCluster},
	{name: "distinct_clusters", heavy: true, run: (*Daemon).distinctClusters},
	{name: "peer-join", run: (*Daemon).peerJoin},
	{name: "peer-status", run: (*Daemon).peerStatus},
	{name: "drift-status", run: (*Daemon).driftStatus},
	opBatch: {name: "batch"},
}

// opNamed indexes opTable by op name.
var opNamed = func() map[string]opcode {
	m := make(map[string]opcode, len(opTable))
	for i := range opTable {
		m[opTable[i].name] = opcode(i)
	}
	return m
}()

// lookupOp resolves an op name to its row: the one unknown-op check,
// behind both codecs' decoders and the encoder.
func lookupOp(name string) (opcode, error) {
	op, ok := opNamed[name]
	if !ok {
		return 0, fmt.Errorf("unknown op %q", name)
	}
	return op, nil
}

// batchHeavy reports whether any sub-request routes to the heavy pool: one
// clustering sub-query makes the whole datagram heavy, since the batch runs
// as one unit and must not head-of-line-block the cheap pool.
func batchHeavy(req *Request) bool {
	for i := range req.Batch {
		if opTable[opNamed[req.Batch[i].Op]].heavy {
			return true
		}
	}
	return false
}

// peer is where a reply goes: the address a *net.UDPConn read reported, by
// value, or the net.Addr of any other PacketConn.
type peer struct {
	ap   netip.AddrPort
	addr net.Addr
}

// task is one admitted request moving through a worker pool.
type task struct {
	req      Request
	op       opcode
	from     peer
	deadline time.Time
	// bin records the request's codec; the reply goes back the same way.
	bin bool
}

// opStats are one op's instruments; Daemon.opStats is indexed by opcode.
type opStats struct {
	requests, errors *obs.Counter
	latency          *obs.Histogram
}

// Daemon serves a crp.Service over a PacketConn. Create it with Serve and
// stop it with Close.
type Daemon struct {
	svc *crp.Service
	cfg Config
	reg *obs.Registry
	now func() time.Time
	pc  net.PacketConn
	// udp is pc when it is a *net.UDPConn: reads and writes then address
	// peers as netip.AddrPort values, which allocate nothing.
	udp *net.UDPConn

	cheapQ chan task
	heavyQ chan task
	// readers counts the live socket readers; the last one out closes the
	// queues.
	readers atomic.Int32

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error

	inflight     *obs.Gauge
	readErrs     *obs.Counter
	writeErrs    *obs.Counter
	badReqs      *obs.Counter
	oversizeReqs *obs.Counter
	rejected     *obs.Counter
	timeouts     *obs.Counter
	oversized    *obs.Counter
	opStats      []opStats
}

// New builds a socketless daemon: Handle serves requests synchronously with
// full instrumentation, but no worker pools or socket readers exist and no
// socket is owned. The deterministic scenario harness embeds daemons this
// way so a single-threaded driver sees a fixed execution order. Close is a
// no-op for a socketless daemon.
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
		opStats:      make([]opStats, len(opTable)),
	}
	for i, row := range opTable {
		d.opStats[i] = opStats{
			requests: cfg.Registry.Counter("crpd.requests." + row.name),
			errors:   cfg.Registry.Counter("crpd.errors." + row.name),
			latency:  cfg.Registry.Histogram("crpd.latency."+row.name, nil),
		}
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
	d.udp, _ = pc.(*net.UDPConn)
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
	readers := 1
	if d.udp != nil {
		readers = runtime.GOMAXPROCS(0)
	}
	d.readers.Store(int32(readers))
	for i := 0; i < readers; i++ {
		d.wg.Add(1)
		go d.readLoop()
	}
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

// intake is the one admission step behind both entry points, readLoop and
// Handle: DecodeRequest (size bound, codec, bounds, op) and the counting of
// what it refuses — an oversized datagram as crpd.oversized_requests, any
// other as crpd.bad_requests. A non-nil error is the client's reply.
func (d *Daemon) intake(raw []byte) (Request, opcode, bool, error) {
	req, bin, err := DecodeRequest(raw)
	switch {
	case errors.Is(err, errTooLarge):
		d.oversizeReqs.Inc()
	case err != nil:
		d.badReqs.Inc()
	}
	return req, opNamed[req.Op], bin, err
}

// readLoop is one socket reader: it admits requests through intake and
// routes them to a pool, answering what it refuses itself. A failed read or
// an unparseable datagram never terminates the loop — only closing the
// daemon does.
func (d *Daemon) readLoop() {
	defer d.wg.Done()
	// Workers exit when their queue is closed and drained; only the readers
	// send on the queues, so the last one to exit closes them.
	defer func() {
		if d.readers.Add(-1) == 0 {
			close(d.cheapQ)
			close(d.heavyQ)
		}
	}()

	// One byte over the request bound: a datagram that fills a
	// MaxRequestSize buffer exactly would be indistinguishable from a
	// kernel-truncated larger one, so the extra byte makes oversize
	// detectable and intake rejects it without decoding truncated bytes.
	buf := make([]byte, MaxRequestSize+1)
	var out []byte // the reader's own reply buffer, for the replies it sends
	for {
		n, from, err := d.readFrom(buf)
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

		req, op, bin, err := d.intake(buf[:n])
		if err != nil {
			out = d.reply(out, from, Response{Error: err.Error()}, bin)
			continue
		}
		q := d.cheapQ
		if opTable[op].heavy || op == opBatch && batchHeavy(&req) {
			q = d.heavyQ
		}
		t := task{req: req, op: op, from: from, deadline: d.now().Add(d.cfg.Timeout), bin: bin}
		select {
		case q <- t:
		default:
			d.rejected.Inc()
			d.opStats[op].errors.Inc()
			out = d.reply(out, from, Response{Error: fmt.Sprintf("server busy: %s queue full", req.Op)}, bin)
		}
	}
}

func (d *Daemon) worker(q chan task) {
	defer d.wg.Done()
	var out []byte // the worker's own reply buffer
	for t := range q {
		out = d.reply(out, t.from, d.serve(t.op, t.req, t.deadline), t.bin)
	}
}

// readFrom reads one datagram and its sender.
func (d *Daemon) readFrom(buf []byte) (n int, from peer, err error) {
	if d.udp != nil {
		n, from.ap, err = d.udp.ReadFromUDPAddrPort(buf)
	} else {
		n, from.addr, err = d.pc.ReadFrom(buf)
	}
	return n, from, err
}

// writeTo sends one reply datagram. Concurrent writes need no lock: one UDP
// write is one datagram.
func (d *Daemon) writeTo(wire []byte, to peer) (err error) {
	if d.udp != nil {
		_, err = d.udp.WriteToUDPAddrPort(wire, to.ap)
	} else {
		_, err = d.pc.WriteTo(wire, to.addr)
	}
	return err
}

// serve is the one instrumented request step behind both entry points: the
// worker path and the synchronous path (Handle) count, time and dispatch a
// request identically. A zero deadline means none; otherwise a request that
// aged out in the queue, or whose handler finished late, gets a structured
// timeout in place of its answer.
func (d *Daemon) serve(op opcode, req Request, deadline time.Time) Response {
	name, st := opTable[op].name, &d.opStats[op]
	d.inflight.Inc()
	defer d.inflight.Dec()
	st.requests.Inc()

	if d.cfg.Hook != nil {
		d.cfg.Hook(name)
	}

	start := d.now()
	if !deadline.IsZero() && !start.Before(deadline) {
		// The request aged out waiting in the queue; don't burn a worker
		// computing an answer the client has stopped waiting for.
		d.timeouts.Inc()
		st.errors.Inc()
		return Response{
			Error:    fmt.Sprintf("deadline exceeded: %s queued longer than %v", name, d.cfg.Timeout),
			TimedOut: true,
		}
	}

	resp := d.dispatch(op, req)
	elapsed := d.now().Sub(start)
	st.latency.ObserveDuration(elapsed)
	if !resp.OK {
		st.errors.Inc()
	}
	if end := start.Add(elapsed); !deadline.IsZero() && end.After(deadline) {
		// The handler finished past the deadline: reply with a structured
		// timeout so the client can tell "slow server" from packet loss.
		d.timeouts.Inc()
		if resp.OK {
			st.errors.Inc()
		}
		resp = Response{
			Error:    fmt.Sprintf("deadline exceeded: %s took %v (limit %v)", name, elapsed.Round(time.Microsecond), d.cfg.Timeout),
			TimedOut: true,
		}
	}
	return resp
}

// reply encodes one response in the request's codec — bounded by
// encodeBounded, into buf — and sends it, counting (not propagating) write
// failures: a failed reply to one client must never take down the service.
// It returns the buffer for the caller's next reply, or nil when this reply
// grew it past maxKeptReply.
func (d *Daemon) reply(buf []byte, to peer, resp Response, bin bool) []byte {
	wire := d.encodeBounded(buf[:0], resp, bin)
	if err := d.writeTo(wire, to); err != nil {
		select {
		case <-d.closed:
			// Shutdown-path write failures are expected, not signal.
		default:
			d.writeErrs.Inc()
		}
	}
	if cap(wire) > maxKeptReply {
		return nil
	}
	return wire[:0]
}

// encodeBounded encodes resp in the chosen codec, appending to dst, and
// enforces the reply ceiling. A too-large batch reply degrades
// deterministically: the largest encoded sub-response (lowest index on ties)
// is replaced with a structured error stub until the envelope fits, so the
// remaining sub-results still reach the client. A too-large single reply
// becomes the structured oversize error, as before.
func (d *Daemon) encodeBounded(dst []byte, resp Response, bin bool) []byte {
	wire := appendResponseWire(dst, &resp, bin)
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
				if n := len(EncodeResponseWire(&resp.Batch[i], bin)); n > size {
					largest, size = i, n
				}
			}
			if largest < 0 {
				break
			}
			resp.Batch[largest] = Response{Error: fmt.Sprintf(
				"response too large: sub-response was %d bytes; narrow the query", size)}
			replaced[largest] = true
			if wire = appendResponseWire(wire[:0], &resp, bin); len(wire) <= MaxReplySize {
				return wire
			}
		}
	}
	return appendResponseWire(wire[:0], &Response{
		Error: fmt.Sprintf("response too large: %d bytes exceeds the %d-byte UDP limit; narrow the query", len(wire), MaxReplySize),
	}, bin)
}

// Handle processes one raw request and returns the encoded reply in the
// request's codec, through the same intake and oversize policy as the wire
// path. It is the synchronous core used by unit tests and by callers
// embedding the daemon in-process.
func (d *Daemon) Handle(raw []byte) []byte {
	req, op, bin, err := d.intake(raw)
	if err != nil {
		return d.encodeBounded(nil, Response{Error: err.Error()}, bin)
	}
	return d.encodeBounded(nil, d.serve(op, req, time.Time{}), bin)
}

// dispatch runs one decoded request through its row. A batch's
// sub-requests run in order, and the envelope is OK; each sub-response
// carries its own verdict. Requests travel by value: a pointer through the
// handler table would move every request to the heap.
func (d *Daemon) dispatch(op opcode, req Request) Response {
	row := &opTable[op]
	if !row.ns && req.NS != "" {
		return Response{Error: fmt.Sprintf("op %q does not support ns scoping", row.name)}
	}
	if op != opBatch {
		return row.run(d, req)
	}
	out := make([]Response, len(req.Batch))
	for i := range req.Batch {
		out[i] = d.dispatch(opNamed[req.Batch[i].Op], req.Batch[i])
	}
	return Response{OK: true, Batch: out}
}

// inScope is the one ns branch, shared by the three ops whose row accepts
// ns: an unscoped request runs all, a scoped one runs in on its namespace.
func inScope[T any](ns string, all func() (T, error), in func(crp.Namespace) (T, error)) (T, error) {
	if ns == "" {
		return all()
	}
	return in(crp.Namespace(ns))
}

func fail(err error) Response { return Response{Error: err.Error()} }

func (d *Daemon) observe(req Request) Response {
	replicas := make([]crp.ReplicaID, len(req.Replicas))
	for i, r := range req.Replicas {
		replicas[i] = crp.ReplicaID(r)
	}
	if err := d.svc.Observe(crp.NodeID(req.Node), d.now(), replicas...); err != nil {
		return fail(err)
	}
	return Response{OK: true}
}

func (d *Daemon) ratioMap(req Request) Response {
	node := crp.NodeID(req.Node)
	m, err := inScope(req.NS,
		func() (crp.RatioMap, error) { return d.svc.RatioMap(node) },
		func(ns crp.Namespace) (crp.RatioMap, error) { return d.svc.RatioMapIn(ns, node) })
	if err != nil {
		return fail(err)
	}
	out := make(map[string]float64, len(m))
	for r, f := range m {
		out[string(r)] = f
	}
	return Response{OK: true, RatioMap: out}
}

func (d *Daemon) similarity(req Request) Response {
	a, b := crp.NodeID(req.A), crp.NodeID(req.B)
	sim, err := inScope(req.NS,
		func() (float64, error) { return d.svc.Similarity(a, b) },
		func(ns crp.Namespace) (float64, error) { return d.svc.SimilarityIn(ns, a, b) })
	if err != nil {
		return fail(err)
	}
	return Response{OK: true, Similarity: &sim}
}

func (d *Daemon) closest(req Request) Response {
	client, k := crp.NodeID(req.Client), max(req.K, 1)
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
	ranked, err := inScope(req.NS,
		func() ([]crp.Scored, error) { return d.svc.TopK(client, cands, k) },
		func(ns crp.Namespace) ([]crp.Scored, error) { return d.svc.TopKIn(ns, client, cands, k) })
	if err != nil {
		return fail(err)
	}
	out := make([]RankedNode, len(ranked))
	for i, s := range ranked {
		out[i] = RankedNode{Node: string(s.Node), Similarity: s.Similarity}
	}
	return Response{OK: true, Ranked: out}
}

func (d *Daemon) nodes(Request) Response { return nodesReply(d.svc.Nodes(), nil) }

func (d *Daemon) sameCluster(req Request) Response {
	return nodesReply(d.svc.SameCluster(crp.NodeID(req.Node), clusterConfig(req)))
}

func (d *Daemon) distinctClusters(req Request) Response {
	return nodesReply(d.svc.DistinctClusters(max(req.N, 1), clusterConfig(req)))
}

// clusterConfig is the SMF configuration a clustering request asks for.
func clusterConfig(req Request) crp.ClusterConfig {
	cfg := crp.ClusterConfig{Threshold: crp.DefaultThreshold, SecondPass: true}
	if req.Threshold != nil {
		// Presence-detected: an explicit 0 is the valid boundary threshold,
		// not a request for the default.
		cfg.Threshold = *req.Threshold
	}
	return cfg
}

// nodesReply answers the ops whose result is a node list.
func nodesReply(ids []crp.NodeID, err error) Response {
	if err != nil {
		return fail(err)
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return Response{OK: true, Nodes: out}
}

func (d *Daemon) stats(Request) Response {
	snap := d.reg.Snapshot()
	SummarizeFamilies(&snap)
	return Response{OK: true, Stats: &snap}
}

// SummarizeFamilies folds the numbered gauge families of a CRP process into
// one six-field summary each (obs.Snapshot.SummarizeGaugeFamily): the
// per-shard node gauges, which scale with the store width (up to 1024
// shards, where the raw family alone overflows the UDP reply budget), and
// the per-namespace families a fused multi-CDN deployment grows. The stats
// op exports the folded copy; the in-process registry keeps full detail.
func SummarizeFamilies(snap *obs.Snapshot) {
	snap.SummarizeGaugeFamily("crp.service.shard.", ".nodes", "crp.service.shard_nodes")
	snap.SummarizeGaugeFamily("crp.service.ns.", ".observes", "crp.service.ns_observes")
	snap.SummarizeGaugeFamily("cdn.ns.", ".replicas", "cdn.ns_replicas")
}

const errNoPeering = "peering disabled: daemon started without a gossip engine"

func (d *Daemon) peerJoin(req Request) Response {
	switch {
	case d.cfg.Peering == nil:
		return Response{Error: errNoPeering}
	case req.Addr == "":
		return Response{Error: "peer-join requires addr"}
	}
	if err := d.cfg.Peering.Join(req.Addr); err != nil {
		return fail(err)
	}
	return Response{OK: true}
}

func (d *Daemon) peerStatus(Request) Response {
	if d.cfg.Peering == nil {
		return Response{Error: errNoPeering}
	}
	st := d.cfg.Peering.Status()
	return Response{OK: true, Peering: &st}
}

func (d *Daemon) driftStatus(Request) Response {
	if d.cfg.Drift == nil {
		return Response{Error: "drift disabled: daemon started without a drift monitor"}
	}
	st := d.cfg.Drift.Status()
	return Response{OK: true, Drift: &st}
}
