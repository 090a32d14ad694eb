package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/crp"
	"repro/internal/obs"
	"repro/internal/peering"
)

const (
	gossipDaemons   = 3
	gossipMaxRounds = 50 // a cycle that has not converged by then has failed
	deltaSamples    = 16 // observed nodes per traced cycle whose export and apply are timed
)

// gossipMesh is the delta path under test: daemons full-meshed over the
// in-memory fabric, a virtual clock, and a single-threaded pump, so a seed
// replays the same datagrams in the same order.
type gossipMesh struct {
	w       *metroWorld
	fabric  *peering.MemMesh
	svcs    []*crp.Service
	engines []*peering.Peering
	conns   []net.PacketConn
	now     time.Time
	buf     []byte

	datagrams, wireBytes int64
	tr                   *tracer // nil outside the traced pass
	root, cycleNo        int     // the traced cycle's root span
}

type observation struct {
	node int
	p    probe
	at   time.Time
}

// span runs fn, as a span of the current cycle when tracing.
func (g *gossipMesh) span(name string, fn func()) {
	if g.tr == nil {
		fn()
		return
	}
	g.tr.call(name, "", g.root, g.cycleNo, false, fn)
}

// newGossipMesh builds the daemons, seeds node i on daemon i mod n, and
// gossips until every store holds every node.
func newGossipMesh(w *metroWorld, seed int64) (*gossipMesh, error) {
	g := &gossipMesh{
		w:      w,
		fabric: peering.NewMemMesh(),
		now:    seedBase.Add(time.Hour),
		buf:    make([]byte, peering.MaxMsgSize+1),
	}
	// A registry of its own: the engines' counters must not leak into the
	// process-wide one the request-path workloads read.
	reg := obs.NewRegistry()
	for i := 0; i < gossipDaemons; i++ {
		svc := crp.NewService(serviceOpts...)
		eng, err := peering.New(peering.Config{
			Self:     fmt.Sprintf("daemon-%02d", i),
			Addr:     fmt.Sprintf("mem-d%02d", i),
			Service:  svc,
			Seed:     uint64(seed) + uint64(i)*7919,
			Now:      func() time.Time { return g.now },
			Resolve:  g.fabric.Resolve,
			Registry: reg,
		})
		if err != nil {
			return nil, err
		}
		pc := g.fabric.Conn(fmt.Sprintf("mem-d%02d", i))
		eng.Attach(pc)
		g.svcs, g.engines, g.conns = append(g.svcs, svc), append(g.engines, eng), append(g.conns, pc)
	}
	for i, eng := range g.engines {
		for j := range g.engines {
			if j != i {
				if err := eng.AddPeer(fmt.Sprintf("daemon-%02d", j), fmt.Sprintf("mem-d%02d", j)); err != nil {
					return nil, err
				}
			}
		}
	}
	for d, svc := range g.svcs {
		if err := w.seedInto(svc, func(i int) bool { return i%gossipDaemons == d }); err != nil {
			return nil, err
		}
	}
	if _, err := g.replicate(); err != nil {
		return nil, fmt.Errorf("initial convergence: %w", err)
	}
	return g, nil
}

// step advances the clock a second, ticks every engine, then pumps every
// queue until a full pass delivers nothing.
func (g *gossipMesh) step() {
	g.now = g.now.Add(time.Second)
	for _, eng := range g.engines {
		g.span("peering.tick", func() { eng.Tick(g.now) })
	}
	for progress := true; progress; {
		progress = false
		for i, pc := range g.conns {
			for {
				n, from, err := pc.ReadFrom(g.buf)
				if err != nil {
					break // this queue is drained
				}
				g.datagrams++
				g.wireBytes += int64(n)
				g.span("peering.handle_datagram", func() { g.engines[i].HandleDatagram(g.buf[:n], from) })
				progress = true
			}
		}
	}
}

func (g *gossipMesh) converged() bool {
	var ref []uint64
	for i, svc := range g.svcs {
		var got []uint64
		g.span("crp.shard_digests", func() { got = svc.ShardDigests() })
		if i == 0 {
			ref = got
		} else if !slices.Equal(ref, got) {
			return false
		}
	}
	return true
}

// replicate gossips until every store's digests agree and returns the rounds
// it took.
func (g *gossipMesh) replicate() (int, error) {
	for round := 1; round <= gossipMaxRounds; round++ {
		g.step()
		if g.converged() {
			return round, nil
		}
	}
	return 0, fmt.Errorf("stores still differ after %d rounds", gossipMaxRounds)
}

// cycle observes n fresh probes of random nodes on one daemon and replicates
// them everywhere. It returns what it observed, for the reference service.
func (g *gossipMesh) cycle(rng *rand.Rand, origin, n int, log []observation) ([]observation, int, error) {
	first := len(log)
	for j := 0; j < n; j++ {
		i := rng.Intn(len(g.w.nodes))
		log = append(log, observation{node: i, p: g.w.draw(rng, i), at: g.now.Add(time.Duration(j) * time.Millisecond)})
	}
	var err error
	observe := func() {
		for _, o := range log[first:] {
			if e := g.svcs[origin].Observe(crp.NodeID(g.w.nodes[o.node]), o.at, g.w.replicaIDs(o.p)...); e != nil {
				err = e
			}
		}
	}
	if g.tr == nil {
		observe()
	} else {
		id := g.tr.call("crp.observe", "", g.root, g.cycleNo, false, observe)
		g.tr.spans[id-1].Units = n
	}
	if err != nil {
		return log, 0, err
	}
	rounds, err := g.replicate()
	return log, rounds, err
}

// gossipCounts is the engines' counters, summed.
type gossipCounts struct {
	sent, applied, stale, pulls, bad, sendErrs float64
}

func (g *gossipMesh) counts() (c gossipCounts) {
	for _, eng := range g.engines {
		s := eng.Stats()
		c.sent += float64(s.DeltasSent)
		c.applied += float64(s.DeltasApplied)
		c.stale += float64(s.DeltasStale)
		c.pulls += float64(s.Pulls)
		c.bad += float64(s.BadMsgs)
		c.sendErrs += float64(s.SendErrors)
	}
	return c
}

// checkSnapshots compares every daemon's WriteSnapshot, byte for byte, with
// that of one service fed the merged stream: the seeded world, then the log.
func (g *gossipMesh) checkSnapshots(log []observation) (check checkResult, err error) {
	w := g.w
	ref := crp.NewService(serviceOpts...)
	if err := w.seedInto(ref, func(int) bool { return true }); err != nil {
		return check, err
	}
	for _, o := range log {
		if err := ref.Observe(crp.NodeID(w.nodes[o.node]), o.at, w.replicaIDs(o.p)...); err != nil {
			return check, err
		}
	}
	// Four 50k-node snapshots are seconds of JSON encoding; the stores are
	// idle now, so they are written side by side.
	snaps := make([]bytes.Buffer, 1+len(g.svcs))
	errs := make([]error, len(snaps))
	var wg sync.WaitGroup
	for i, svc := range append([]*crp.Service{ref}, g.svcs...) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = svc.WriteSnapshot(&snaps[i])
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return check, err
	}
	for i := range g.svcs {
		check.attempted++
		if want, got := &snaps[0], &snaps[i+1]; !bytes.Equal(want.Bytes(), got.Bytes()) {
			check.failf("daemon %d's snapshot (%d bytes) differs from the merged-stream reference (%d bytes)", i, got.Len(), want.Len())
		}
	}
	return check, nil
}

// runGossip measures the delta path.
func runGossip(opt options) (*runResult, error) {
	res := newResult("gossip_replicate", opt, "in-memory mesh, negotiated binary codec, virtual clock")
	w := newMetroWorld(opt.seed, opt.sz)
	n := opt.sz.gossipObserves

	g, setupSecs, heapMB, err := repeatSetup(opt,
		func() (*gossipMesh, error) { return newGossipMesh(w, opt.seed) },
		func(*gossipMesh) {})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	rng := newRNG(opt.seed, "gossip")
	var log []observation
	cycleNo := 0
	next := func() (time.Duration, int, error) {
		start := time.Now()
		var rounds int
		log, rounds, err = g.cycle(rng, cycleNo%gossipDaemons, n, log)
		cycleNo++
		return time.Since(start), rounds, err
	}
	var check checkResult
	failed := func(err error) (*runResult, error) {
		// A cycle that did not converge is a wrong answer, not a harness
		// fault: report it as one.
		check.attempted++
		check.failf("cycle %d: %v", cycleNo, err)
		res.Attempted, res.Failed = int64(check.attempted), int64(check.failed)
		res.Findings = append(res.Findings, "failure: "+check.firstErr)
		return res, nil
	}

	for i := 0; i < opt.gossipWarm; i++ {
		if _, _, err := next(); err != nil {
			return failed(err)
		}
	}

	// The traced pass runs a fixed number of cycles straight after a fixed
	// warm-up, so its counts repeat exactly for a seed.
	var tracedUS, rounds []float64
	var tracedDatagrams int64
	var c0, c1 gossipCounts
	if opt.trace {
		shadow := crp.NewService(serviceOpts...) // receives the sampled deltas, outside the mesh
		g.tr = newTracer(opt.gossipTrace * (n*8 + 4096))
		c0, tracedDatagrams = g.counts(), g.datagrams
		for i := 0; i < opt.gossipTrace && !g.tr.full(); i++ {
			g.cycleNo = cycleNo + 1
			g.root = g.tr.begin("cycle", "", 0, g.cycleNo)
			first, origin := len(log), cycleNo%gossipDaemons
			d, r, err := next()
			g.tr.end(g.root)
			if err != nil {
				return failed(err)
			}
			tracedUS, rounds = append(tracedUS, float64(d.Microseconds())), append(rounds, float64(r))
			g.root = 0
			for _, o := range log[first:min(first+deltaSamples, len(log))] {
				var delta crp.NodeDelta
				var ok bool
				g.span("crp.export_delta", func() { delta, ok = g.svcs[origin].ExportDelta(crp.NodeID(w.nodes[o.node])) })
				if !ok {
					return failed(fmt.Errorf("ExportDelta(%s): unknown node", w.nodes[o.node]))
				}
				g.span("crp.apply_delta", func() { _, err = shadow.ApplyDelta(delta) })
				if err != nil {
					return failed(err)
				}
			}
		}
		c1, tracedDatagrams = g.counts(), g.datagrams-tracedDatagrams
		res.tracer, g.tr = g.tr, nil
	}

	// The measured window.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	bytes0 := g.wireBytes
	var cycles laneStats
	stopPeak := watchHeapPeak()
	start := time.Now()
	for time.Since(start) < opt.window {
		d, _, err := next()
		if err != nil {
			return failed(err)
		}
		cycles.record(time.Since(start), d, n)
	}
	elapsed := time.Since(start).Seconds()
	heapPeakMB := stopPeak()
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	observed := float64(cycles.units)
	check.attempted += len(cycles.lat) // every cycle ended with equal digests

	snapshots, err := g.checkSnapshots(log)
	if err != nil {
		return nil, err
	}
	check.add(snapshots)

	c := cutLanes(opt.window, elapsed, &cycles)
	p50, _ := c.percentile(0.50)
	p90, l90 := c.percentile(0.90)
	p99, l99 := percentile(c.whole, 0.99)
	res.Levels = map[string]float64{"loadgen.lat_p90_us": l90, "loadgen.lat_p99_us": l99}
	e := res.EndToEnd
	e["ops_per_s"] = c.rate()
	e["lat_p50_us"] = p50
	e["allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / observed
	e["wire_bytes_per_op"] = float64(g.wireBytes-bytes0) / observed
	e["heap_mb"] = median(heapMB)
	e["setup_s"] = median(setupSecs)
	res.Attempted, res.Failed, res.Correct = int64(check.attempted), int64(check.failed), check.failed == 0
	if check.firstErr != "" {
		res.Findings = append(res.Findings, "failure: "+check.firstErr)
	}
	if !opt.trace {
		return res, nil
	}

	res.PerLayer = zeroed(perLayer)
	pl, tr := res.PerLayer, res.tracer
	tracedCycles := float64(len(tracedUS))
	pl["crp.observe_us"] = median(tr.micros("crp.observe", "", true))
	pl["crp.export_delta_us"] = median(tr.micros("crp.export_delta", "", false))
	pl["crp.apply_delta_us"] = median(tr.micros("crp.apply_delta", "", false))
	pl["crp.shard_digests_us"] = median(tr.micros("crp.shard_digests", "", false))
	pl["crp.heap_bytes_per_node"] = e["heap_mb"] * 1e6 / float64(gossipDaemons*len(w.nodes))
	pl["peering.tick_us"] = median(tr.micros("peering.tick", "", false))
	pl["peering.handle_datagram_us"] = median(tr.micros("peering.handle_datagram", "", false))
	pl["peering.rounds_per_cycle"] = mean(rounds)
	pl["peering.datagrams_per_cycle"] = float64(tracedDatagrams) / tracedCycles
	pl["peering.deltas_sent_per_node"] = (c1.sent - c0.sent) / (tracedCycles * float64(n))
	if handled := c1.applied - c0.applied + c1.stale - c0.stale; handled > 0 {
		pl["peering.useful_delta_ratio"] = (c1.applied - c0.applied) / handled
	}
	pl["peering.pulls"] = c1.pulls - c0.pulls
	pl["peering.bad_msgs"] = c1.bad - c0.bad
	pl["peering.send_errors"] = c1.sendErrs - c0.sendErrs
	pl["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	pl["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	pl["runtime.cpu_s"] = (cpu1 - cpu0).Seconds()
	pl["runtime.heap_peak_mb"] = heapPeakMB
	pl["loadgen.lat_p90_us"] = p90
	pl["loadgen.lat_p99_us"] = p99
	pl["loadgen.samples"] = float64(len(cycles.lat))
	// The stream is the observation log; its head is the same however long
	// the window ran.
	h, hrng := fnv.New64a(), newRNG(opt.seed, "gossip")
	for j := 0; j < 100; j++ {
		i := hrng.Intn(len(w.nodes))
		fmt.Fprint(h, i, w.draw(hrng, i))
	}
	pl["loadgen.stream_hash"] = float64(h.Sum64() & (1<<48 - 1))
	pl["loadgen.fail_share"] = float64(res.Failed) / float64(res.Attempted)
	if p50 > 0 {
		pl["trace.overhead_pct"] = 100 * (median(tracedUS) - p50) / p50
	}
	return res, nil
}
