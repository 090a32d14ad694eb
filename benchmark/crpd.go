package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/crp"
	"repro/internal/crpdaemon"
	"repro/internal/obs"
)

// crpdWorkload is one request-path workload: a world, the lanes that load a
// daemon serving it over loopback UDP, and the checks against its model.
type crpdWorkload struct {
	name       string
	population int           // nodes (clients, when aggregated) the heap is divided by
	primaryOp  string        // the daemon op whose handler histogram is read
	bgInterval time.Duration // the background stream sends one frame every bgInterval
	bgEvery    int           // traced pass: primary requests per background request

	build func() (*crp.Service, error) // a fresh seeded service
	warm  *crpdaemon.Request           // set-up's warm-up query
	// streams returns fresh streams; equal tags replay equal bytes. Only
	// recorded streams feed the mirror.
	streams   func(tag string, recorded bool) load
	precheck  func(ask asker, n int) checkResult
	postcheck func(ask asker) checkResult
	// shape returns the node count and mean compiled-vector length, which a
	// stationary workload leaves unchanged.
	shape func(svc *crp.Service) (nodes int, vecLen float64, err error)
}

func metroShape(svc *crp.Service) (int, float64, error) {
	nodes := svc.Nodes()
	sum := 0
	for _, n := range nodes {
		m, err := svc.RatioMap(n)
		if err != nil {
			return 0, 0, err
		}
		sum += len(m)
	}
	return len(nodes), float64(sum) / float64(max(len(nodes), 1)), nil
}

func newMetroWorkload(name string, seed int64, sz sizes) *crpdWorkload {
	w := newMetroWorld(seed, sz)
	wl := &crpdWorkload{
		name:       name,
		population: len(w.nodes),
		shape:      metroShape,
		build: func() (*crp.Service, error) {
			w.resetMirror()
			svc := crp.NewService(serviceOpts...)
			return svc, w.seedInto(svc, func(int) bool { return true })
		},
		postcheck: w.checkMirror,
	}
	const scanK = 5
	scan := &crpdaemon.Request{Op: "closest", Client: w.nodes[0], K: scanK}
	switch name {
	case "rpc_small":
		wl.primaryOp, wl.warm = "similarity", &crpdaemon.Request{Op: "similarity", A: w.nodes[0], B: w.nodes[1]}
		wl.streams = func(tag string, _ bool) load {
			return load{primary: []*stream{w.similarityStream(newRNG(seed, tag+"-a")), w.similarityStream(newRNG(seed, tag+"-b"))}}
		}
		wl.precheck = func(ask asker, n int) checkResult { return w.checkSimilarity(ask, seed, n) }
	case "scan_under_ingest":
		wl.primaryOp, wl.warm, wl.bgInterval, wl.bgEvery = "closest", scan, 40*time.Millisecond, 12
		wl.streams = func(tag string, recorded bool) load {
			return load{
				primary: []*stream{w.scanStream(newRNG(seed, tag+"-a"), scanK)},
				bg:      w.ingestStream(newRNG(seed, tag+"-b"), 60, recorded),
			}
		}
		// Each check costs a brute-force pass over the world, so a tenth.
		wl.precheck = func(ask asker, n int) checkResult { return w.checkScan(ask, seed, (n+9)/10, scanK) }
	case "ingest_heavy":
		wl.primaryOp, wl.warm, wl.bgInterval, wl.bgEvery = "batch", scan, 200*time.Millisecond, 256
		wl.streams = func(tag string, recorded bool) load {
			return load{
				primary: []*stream{w.ingestStream(newRNG(seed, tag+"-a"), 32, recorded)},
				bg:      w.scanStream(newRNG(seed, tag+"-b"), scanK),
			}
		}
		wl.precheck = func(ask asker, n int) checkResult { return w.checkScan(ask, seed, (n+9)/10, scanK) }
	}
	return wl
}

func newAggWorkload(seed int64, sz sizes) *crpdWorkload {
	w := newAggWorld(seed, sz)
	const k = 3
	return &crpdWorkload{
		name:       "agg_closest",
		population: sz.aggClients,
		primaryOp:  "closest",
		bgInterval: 25 * time.Millisecond,
		bgEvery:    130,
		build: func() (*crp.Service, error) {
			svc := crp.NewService(serviceOpts...)
			return svc, w.seedInto(svc)
		},
		warm: &crpdaemon.Request{Op: "closest", Client: w.addr(0), Candidates: w.cands, K: k},
		streams: func(tag string, _ bool) load {
			return load{
				primary: []*stream{w.closestStream(newRNG(seed, tag+"-a"), k)},
				bg:      w.ingestStream(newRNG(seed, tag+"-b"), 50),
			}
		},
		precheck:  func(ask asker, n int) checkResult { return w.checkClosest(ask, seed, n) },
		postcheck: func(asker) checkResult { return checkResult{} },
		// Per-client entries plus aggregate groups; vector length over a
		// fixed sample of clients, served from their groups.
		shape: func(svc *crp.Service) (int, float64, error) {
			sum, n := 0, 2000
			for j := 0; j < n; j++ {
				m, err := svc.RatioMap(crp.NodeID(w.addr(j * (sz.aggClients / n))))
				if err != nil {
					return 0, 0, err
				}
				sum += len(m)
			}
			return len(svc.Nodes()) + int(svc.AggregateInfo().Groups), float64(sum) / float64(n), nil
		},
	}
}

// served is one set-up: a seeded service behind a daemon on loopback.
type served struct {
	svc    *crp.Service
	daemon *crpdaemon.Daemon
	ctl    *udpClient // checks, warm-up query, stats op
}

func (s *served) close() {
	s.ctl.conn.Close()
	s.daemon.Close()
}

func (s *served) ask(req *crpdaemon.Request) (crpdaemon.Response, error) { return s.ctl.ask(req, true) }

// stats fetches the daemon's registry snapshot through its stats op.
func (s *served) stats() (*obs.Snapshot, error) {
	resp, err := s.ctl.ask(&crpdaemon.Request{Op: "stats"}, false)
	if err != nil {
		return nil, fmt.Errorf("stats op: %w", err)
	}
	if resp.Stats == nil {
		return nil, errors.New("stats op: reply carries no snapshot")
	}
	return resp.Stats, nil
}

func (wl *crpdWorkload) setup() (*served, error) {
	svc, err := wl.build()
	if err != nil {
		return nil, fmt.Errorf("seed world: %w", err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d, err := crpdaemon.Serve(pc, svc, crpdaemon.Config{})
	if err != nil {
		pc.Close()
		return nil, err
	}
	ctl, err := dial(d.Addr())
	if err != nil {
		d.Close()
		return nil, err
	}
	s := &served{svc: svc, daemon: d, ctl: ctl}
	if _, err := s.ask(wl.warm); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up query: %w", err)
	}
	return s, nil
}

// heapNow forces a collection and returns the live heap.
func heapNow() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// maxSetups bounds the repeats options.setupTime can ask for.
const maxSetups = 9

// repeatSetup sets up opt.setups times, and on until opt.setupTime is spent
// setting up, keeping the last. It returns each set-up's duration and the
// live heap it added.
func repeatSetup[T any](opt options, setup func() (T, error), drop func(T)) (last T, secs, heapMB []float64, err error) {
	spent := time.Duration(0)
	for i := 0; i < opt.setups || (spent < opt.setupTime && i < maxSetups); i++ {
		if i > 0 {
			drop(last)
			var zero T
			last = zero
		}
		before := heapNow()
		start := time.Now()
		if last, err = setup(); err != nil {
			return last, nil, nil, err
		}
		spent += time.Since(start)
		secs = append(secs, time.Since(start).Seconds())
		heapMB = append(heapMB, (float64(heapNow())-float64(before))/1e6)
	}
	return last, secs, heapMB, nil
}

// procSnap is the process and daemon state read at a window's edges.
type procSnap struct {
	mem    runtime.MemStats
	cpu    time.Duration
	stats  *obs.Snapshot
	nodes  int
	vecLen float64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (wl *crpdWorkload) snap(s *served) (p procSnap, err error) {
	if p.nodes, p.vecLen, err = wl.shape(s.svc); err != nil {
		return p, err
	}
	if p.stats, err = s.stats(); err != nil {
		return p, err
	}
	p.cpu = cpuTime()
	runtime.ReadMemStats(&p.mem)
	return p, nil
}

// watchHeapPeak samples the live heap every 100 ms until stop is called,
// which returns the largest reading in MB. runtime/metrics does not stop the
// world.
func watchHeapPeak() (stop func() float64) {
	done, peak := make(chan struct{}), make(chan float64)
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		largest := 0.0
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			largest = max(largest, float64(sample[0].Value.Uint64())/1e6)
			select {
			case <-done:
				peak <- largest
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

// phase runs every lane concurrently for d and returns what each measured.
func phase(clients []*udpClient, specs []laneSpec, d time.Duration) ([]laneStats, time.Time) {
	stats := make([]laneStats, len(specs))
	for i, sp := range specs {
		expect := int(d.Seconds() * 200_000) // closed loops stay under 200k/s here
		if sp.interval > 0 {
			expect = int(d/sp.interval) + 16
			stats[i].late = make([]uint32, 0, expect)
		}
		stats[i].lat = make([]uint32, 0, expect)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clients[i].run(specs[i], start, start.Add(d), &stats[i])
		}()
	}
	wg.Wait()
	return stats, start
}

// primaryAllocs runs the primary lanes alone for d and returns the process's
// mallocs over it, with what the lanes did.
func primaryAllocs(clients []*udpClient, specs []laneSpec, d time.Duration) (float64, laneStats) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stats, _ := phase(clients, specs, d)
	runtime.ReadMemStats(&after)
	var sum laneStats
	for _, ls := range stats {
		sum.attempted += ls.attempted
		sum.failed += ls.failed
		sum.units += ls.units
		if sum.firstErr == "" {
			sum.firstErr = ls.firstErr
		}
	}
	return float64(after.Mallocs - before.Mallocs), sum
}

// histDelta is the histogram of what was observed between two snapshots.
func histDelta(before, after obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Bounds: after.Bounds, Counts: append([]uint64(nil), after.Counts...), Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	for i := range before.Counts {
		d.Counts[i] -= before.Counts[i]
	}
	return d
}

// runCrpd measures one request-path workload.
func runCrpd(wl *crpdWorkload, opt options) (*runResult, error) {
	res := newResult(wl.name, opt, "loopback UDP, binary codec")
	ld := wl.streams("load", true)
	specs := ld.lanes(wl.bgInterval)
	if len(specs) > runtime.NumCPU() {
		return nil, fmt.Errorf("%d generator connections on %d CPUs: the generator would measure itself", len(specs), runtime.NumCPU())
	}

	s, setupSecs, heapMB, err := repeatSetup(opt, wl.setup, (*served).close)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()

	check := wl.precheck(s.ask, opt.checks)

	clients := make([]*udpClient, len(specs))
	for i := range specs {
		if clients[i], err = dial(s.daemon.Addr()); err != nil {
			return nil, err
		}
		defer clients[i].conn.Close()
	}
	phase(clients, specs, opt.warm)

	var tr *tracer
	if opt.trace {
		traced := wl.streams("trace", true)
		if tr, err = traceCrpd(s.svc, traced.primary[0], traced.bg, wl.bgEvery, opt.traceBudget, opt.traceReqs); err != nil {
			check.attempted++
			check.failf("traced pass: %v", err)
			tr = newTracer(0)
		}
	}

	before, err := wl.snap(s)
	if err != nil {
		return nil, err
	}
	stopPeak := watchHeapPeak()
	stats, start := phase(clients, specs, opt.window)
	heapPeakMB := stopPeak()
	after, err := wl.snap(s)
	if err != nil {
		return nil, err
	}

	// The background stream's mallocs arrive at a fixed rate, so per primary
	// op they would move with ops_per_s. Where there is such a stream, mallocs
	// are counted over a further phase of the primary lanes alone.
	mallocs, alone := float64(after.mem.Mallocs-before.mem.Mallocs), laneStats{}
	if n := len(ld.primary); ld.bg != nil {
		mallocs, alone = primaryAllocs(clients[:n], specs[:n], opt.allocPhase)
	}

	check.add(wl.postcheck(s.ask))

	// Fold the lanes into the primary stream and the background one.
	var prim, bg laneStats
	var primLanes []*laneStats
	var end time.Time
	for i := range stats {
		ls, into := &stats[i], &prim
		if i < len(ld.primary) {
			primLanes = append(primLanes, ls)
		} else {
			into, bg.lat = &bg, ls.lat
		}
		into.attempted += ls.attempted
		into.failed += ls.failed
		into.units += ls.units
		into.reqBytes += ls.reqBytes
		into.replyBytes += ls.replyBytes
		into.late = append(into.late, ls.late...)
		if into.firstErr == "" {
			into.firstErr = ls.firstErr
		}
		if ls.last.After(end) {
			end = ls.last
		}
	}
	if prim.units == 0 {
		return nil, fmt.Errorf("no primary op completed in the window: %s", prim.firstErr)
	}
	elapsed := end.Sub(start).Seconds()
	c := cutLanes(opt.window, elapsed, primLanes...)
	p50, _ := c.percentile(0.50)
	p90, l90 := c.percentile(0.90)
	p99, l99 := percentile(c.whole, 0.99)
	res.Levels = map[string]float64{"loadgen.lat_p90_us": l90, "loadgen.lat_p99_us": l99}

	e := res.EndToEnd
	e["ops_per_s"] = c.rate()
	e["lat_p50_us"] = p50
	e["allocs_per_op"] = mallocs / float64(prim.units)
	if alone.units > 0 {
		e["allocs_per_op"] = mallocs / float64(alone.units)
	}
	e["wire_bytes_per_op"] = float64(prim.reqBytes+prim.replyBytes) / float64(prim.units)
	e["heap_mb"] = median(heapMB)
	e["setup_s"] = median(setupSecs)

	res.Attempted = int64(check.attempted) + prim.attempted + bg.attempted + alone.attempted
	res.Failed = int64(check.failed) + prim.failed + bg.failed + alone.failed
	res.Correct = check.failed == 0
	for _, msg := range []string{check.firstErr, prim.firstErr, bg.firstErr, alone.firstErr} {
		if msg != "" {
			res.Findings = append(res.Findings, "failure: "+msg)
		}
	}

	// Guards: a run whose store drifted or whose generator fell behind
	// measured something other than the workload.
	if drift(before.nodes, after.nodes) > opt.driftTol || drift(before.vecLen, after.vecLen) > opt.driftTol {
		return nil, fmt.Errorf("store not stationary over the window: nodes %d → %d, mean vector length %.4f → %.4f",
			before.nodes, after.nodes, before.vecLen, after.vecLen)
	}
	lateP99, _ := percentile(micros(bg.late), 0.99)
	if ld.bg != nil && lateP99 > float64(wl.bgInterval.Microseconds()) {
		return nil, fmt.Errorf("open-loop generator ran late: p99 %.0f us behind a %v schedule", lateP99, wl.bgInterval)
	}

	if !opt.trace {
		return res, nil
	}
	res.tracer = tr
	res.PerLayer = zeroed(perLayer)
	pl := res.PerLayer
	wl.traceLayers(pl, tr, p50)
	requests := float64(len(c.whole))
	pl["transport.req_bytes"] = float64(prim.reqBytes) / requests
	pl["transport.reply_bytes"] = float64(prim.replyBytes) / requests

	// Deltas of the daemon's own registry, read through its stats op.
	delta := func(name string) float64 {
		return float64(after.stats.Counters[name]) - float64(before.stats.Counters[name])
	}
	pl["crpdaemon.rejected"] = delta("crpd.rejected")
	pl["crpdaemon.timeouts"] = delta("crpd.timeouts")
	hist := "crpd.latency." + wl.primaryOp
	pl["crpdaemon.handler_p50_us"] = histDelta(before.stats.Histograms[hist], after.stats.Histograms[hist]).Quantile(0.5) * 1e6
	if scans := delta("crp.service.snapshot.hits") + delta("crp.service.snapshot.rebuilds"); scans > 0 {
		pl["crp.snapshot_hit_ratio"] = delta("crp.service.snapshot.hits") / scans
		pl["crp.shard_rebuilds_per_query"] = delta("crp.service.snapshot.shard_rebuilds") / scans
	}
	pl["crp.heap_bytes_per_node"] = e["heap_mb"] * 1e6 / float64(wl.population)
	info := s.svc.AggregateInfo()
	pl["crp.agg_groups"] = float64(info.Groups)
	pl["crp.agg_demoted"] = float64(info.Demoted)
	pl["crp.agg_state_bytes"] = float64(info.StateBytes)

	pl["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	pl["runtime.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	pl["runtime.cpu_s"] = (after.cpu - before.cpu).Seconds()
	pl["runtime.heap_peak_mb"] = heapPeakMB

	pl["loadgen.lat_p90_us"] = p90
	pl["loadgen.lat_p99_us"] = p99
	pl["loadgen.samples"] = requests
	pl["loadgen.late_p99_us"] = lateP99
	fresh := wl.streams("load", false)
	pl["loadgen.stream_hash"] = float64(streamHash(fresh, 100))
	pl["loadgen.fail_share"] = float64(res.Failed) / float64(res.Attempted)
	if bg.attempted > 0 {
		pl["loadgen.bg_ops_per_s"] = float64(bg.units) / elapsed
		pl["loadgen.bg_lat_p50_us"], _ = percentile(micros(bg.lat), 0.50)
	}
	if resid := pl["trace.split_residual_pct"]; math.Abs(resid) > 10 {
		res.Findings = append(res.Findings, fmt.Sprintf("finding: the split path's spans leave %.1f%% of crpdaemon.handle_us unattributed", resid))
	}
	return res, nil
}

// traceLayers fills in what the traced pass measured: the median time and
// mean mallocs of each layer's calls, and what of the whole path and of the
// window's median round trip they leave unexplained.
func (wl *crpdWorkload) traceLayers(pl map[string]float64, tr *tracer, roundTripP50 float64) {
	us := func(name, role string) float64 { return median(tr.micros(name, role, false)) }
	handle := us("crpdaemon.handle", rolePrimary)
	pl["crpdaemon.handle_us"] = handle
	pl["crpdaemon.handle_allocs"] = tr.allocs("crpdaemon.handle", rolePrimary)
	pl["crpdaemon.decode_us"] = us("crpdaemon.decode", rolePrimary)
	pl["crpdaemon.decode_allocs"] = tr.allocs("crpdaemon.decode", rolePrimary)
	pl["crpdaemon.encode_us"] = us("crpdaemon.encode", rolePrimary)
	pl["crpdaemon.encode_allocs"] = tr.allocs("crpdaemon.encode", rolePrimary)
	pl["crpdaemon.decode_us_json"] = us("crpdaemon.decode_json", rolePrimary)
	pl["crpdaemon.encode_us_json"] = us("crpdaemon.encode_json", rolePrimary)
	// The primary request's one service call: a query, or a frame of observes.
	service := median(append(tr.micros("crp.query", rolePrimary, false), tr.micros("crp.observe", rolePrimary, false)...))
	pl["crpdaemon.dispatch_self_us"] = handle - pl["crpdaemon.decode_us"] - service - pl["crpdaemon.encode_us"]
	if handle > 0 {
		pl["trace.split_residual_pct"] = 100 * pl["crpdaemon.dispatch_self_us"] / handle
	}
	pl["transport.residual_us"] = roundTripP50 - handle
	// Either stream's: each workload queries on one and observes on the other.
	pl["crp.query_us"] = median(tr.micros("crp.query", "", true))
	pl["crp.query_allocs"] = tr.allocs("crp.query", "")
	pl["crp.observe_us"] = median(tr.micros("crp.observe", "", true))
	pl["crp.observe_allocs"] = tr.allocs("crp.observe", "")
}

func drift[T int | float64](before, after T) float64 {
	if before == 0 {
		return 0
	}
	return math.Abs(float64(after)-float64(before)) / float64(before)
}
