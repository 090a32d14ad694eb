package scenario

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"net/netip"
	"slices"
	"sync"
	"time"

	"repro/crp"
	"repro/internal/crpdaemon"
	"repro/internal/drift"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/peering"
)

// Options tunes a run without touching the plan (the plan alone determines
// the deterministic slice; Options only picks where instruments land and
// where progress lines go).
type Options struct {
	// Registry receives the daemons', engines' and scenario's instruments
	// (default: a fresh private registry; crpbench passes obs.Default()).
	Registry *obs.Registry
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// scenarioBase anchors the virtual clock, matching the gossip harness.
var scenarioBase = time.Unix(1_800_000_000, 0)

// schedOp is one scheduled request: what to send, plus the observe facts
// the mirror service and target pools need. The schedule is built
// single-threaded from seeded hashes, so it is identical on both transports
// and across reruns.
type schedOp struct {
	gs  *groupState
	req crpdaemon.Request
	// For observes: the identity and replica set, so the mem runner can
	// mirror the mutation into the merged-stream reference service.
	observeNode string
	observeReps []string
}

// groupState is one group's live state during a run.
type groupState struct {
	g   *Group
	idx int
	ar  *arrivals
	// prefix-structured identity space (valid when hasPrefix).
	prefix    netip.Prefix
	hasPrefix bool
	bin       bool
	// Target pool: providers homed on the same daemon, plus this group's
	// own identities observed in *previous* ticks (promotion happens at
	// tick end, so a query never races its own observe).
	pool    []string
	poolSet map[string]bool
	// Counts. The obs counters feed the stats-op export; the local fields
	// feed the report without re-reading the registry.
	offered, completed, errored uint64
	expected                    float64
	cOffered                    *obs.Counter
	cCompleted                  *obs.Counter
	cErrored                    *obs.Counter
	cRetries                    *obs.Counter
	hLatency                    *obs.Histogram

	mu   sync.Mutex
	lats []time.Duration
}

func (gs *groupState) recordOutcome(resp crpdaemon.Response, rtt time.Duration) {
	gs.mu.Lock()
	if resp.OK {
		gs.completed++
		gs.cCompleted.Inc()
	} else {
		gs.errored++
		gs.cErrored.Inc()
	}
	gs.lats = append(gs.lats, rtt)
	gs.mu.Unlock()
	gs.hLatency.ObserveDuration(rtt)
}

// promote adds an observed identity to the target pool for later ticks.
func (gs *groupState) promote(node string) {
	if node == "" || gs.poolSet[node] {
		return
	}
	gs.poolSet[node] = true
	gs.pool = append(gs.pool, node)
}

type runner struct {
	p      *Plan
	reg    *obs.Registry
	logf   func(string, ...any)
	groups []*groupState
	// providersOn[d] lists provider identities homed on daemon d, in plan
	// order — the seed of every driven group's target pool.
	providersOn [][]string
	maxProbes   int
	// planClock is the time the plan's fault windows run on: the offset
	// since the driven window's start, set by the transport loops.
	planClock *netsim.Clock
}

// Run executes a plan and returns its report. The returned error covers
// harness failures only; envelope failures land in the report's verdicts so
// the caller can print them before deciding the exit code.
func Run(p *Plan, opt Options) (*Report, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	reg := opt.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	r := &runner{
		p:           p,
		reg:         reg,
		logf:        logf,
		providersOn: make([][]string, p.Daemons),
		planClock:   netsim.NewClock(),
	}
	for i := range p.Groups {
		g := &p.Groups[i]
		gs := &groupState{
			g:          g,
			idx:        i,
			bin:        g.Codec == "binary",
			poolSet:    make(map[string]bool),
			cOffered:   reg.Counter("scenario.group." + g.Name + ".offered"),
			cCompleted: reg.Counter("scenario.group." + g.Name + ".completed"),
			cErrored:   reg.Counter("scenario.group." + g.Name + ".errored"),
			cRetries:   reg.Counter("scenario.group." + g.Name + ".retries"),
			hLatency:   reg.Histogram("scenario.group."+g.Name+".latency", nil),
		}
		if g.Prefix != "" {
			gs.prefix = netip.MustParsePrefix(g.Prefix)
			gs.hasPrefix = true
		}
		switch g.Kind {
		case KindProviders:
			for m := 0; m < g.Size; m++ {
				r.providersOn[g.Home] = append(r.providersOn[g.Home], r.identity(gs, m, 0))
			}
			if g.Probes > r.maxProbes {
				r.maxProbes = g.Probes
			}
		default:
			gs.ar = newArrivals(p.Seed, i, g.Size, g.Arrival)
		}
		r.groups = append(r.groups, gs)
	}
	for _, gs := range r.groups {
		if gs.ar != nil {
			gs.pool = append(gs.pool, r.providersOn[gs.g.Home]...)
			for _, n := range gs.pool {
				gs.poolSet[n] = true
			}
		}
	}

	if p.Transport == TransportUDP {
		return r.runUDP()
	}
	return r.runMem()
}

// identity is member m's node ID at virtual offset t from the window start.
// Prefix groups get dotted-quad addresses inside their CIDR (so the
// aggregation plane groups them); mobile groups present as their current
// LDNS; everyone else is a stable symbolic name.
func (r *runner) identity(gs *groupState, m int, t time.Duration) string {
	if gs.ar != nil && gs.g.Arrival.Process == ProcessMobile {
		return fmt.Sprintf("%s-l%03d", gs.g.Name, gs.ar.ldnsAt(m, t))
	}
	if gs.hasPrefix {
		hosts := 1 << (32 - gs.prefix.Bits())
		base := gs.prefix.Masked().Addr().As4()
		off := uint32(m % hosts)
		v := (uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8 | uint32(base[3])) + off
		return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}).String()
	}
	return fmt.Sprintf("%s-m%03d", gs.g.Name, m)
}

// replica draws a wire replica ID from the group's pool, ns-qualified when
// the group is scoped.
func (r *runner) replica(gs *groupState, idx int) string {
	id := crp.ReplicaID(fmt.Sprintf("r%02d", idx%gs.g.Replicas))
	if gs.g.NS != "" {
		id = crp.Qualify(crp.Namespace(gs.g.NS), id)
	}
	return string(id)
}

// seedOps builds the provider-seeding schedule for probe round k: every
// provider node observed once, with a metro-structured replica distribution
// (65/20/10% on the metro's three local replicas, 5% cross-metro noise) so
// SMF clustering has real structure to find.
func (r *runner) seedOps(k int) []schedOp {
	var ops []schedOp
	for _, gs := range r.groups {
		if gs.g.Kind != KindProviders || k >= gs.g.Probes {
			continue
		}
		for m := 0; m < gs.g.Size; m++ {
			node := r.identity(gs, m, 0)
			metro := m % gs.g.Metros
			base := (metro * 3) % gs.g.Replicas
			reps := make([]string, 0, 3)
			for pick := 0; pick < 3; pick++ {
				u := netsim.UnitAt(r.p.Seed, domProviderSeed, uint64(gs.idx), uint64(m), uint64(k), uint64(pick))
				var idx int
				switch {
				case u < 0.65:
					idx = base
				case u < 0.85:
					idx = base + 1
				case u < 0.95:
					idx = base + 2
				default:
					idx = int(netsim.Mix(r.p.Seed, domProviderSeed, uint64(gs.idx), uint64(m), uint64(k), uint64(pick)) % uint64(gs.g.Replicas))
				}
				reps = append(reps, r.replica(gs, idx))
			}
			ops = append(ops, schedOp{
				gs:          gs,
				req:         crpdaemon.Request{Op: "observe", Node: node, Replicas: reps},
				observeNode: node,
				observeReps: reps,
			})
		}
	}
	return ops
}

// buildTick builds tick t's schedule across every driven group, in group
// order. All choices are stateless seeded hashes over (seed, group, tick,
// op index), so the schedule is a pure function of the plan.
func (r *runner) buildTick(t int) []schedOp {
	at := time.Duration(t) * tick
	var ops []schedOp
	for _, gs := range r.groups {
		if gs.ar == nil {
			continue
		}
		n := gs.ar.Count(t)
		gs.expected += gs.ar.RateAt(at) * tick.Seconds()
		for j := 0; j < n; j++ {
			ops = append(ops, r.buildOp(gs, t, j, at))
		}
	}
	return ops
}

func (r *runner) buildOp(gs *groupState, t, j int, at time.Duration) schedOp {
	seed := netsim.Mix(r.p.Seed, uint64(gs.idx)+1)
	op := pickOp(gs.g.Ops, seed, uint64(t), uint64(j))
	member := int(netsim.Mix(seed, domMemberPick, uint64(t), uint64(j)) % uint64(gs.g.Size))
	self := r.identity(gs, member, at)
	// Query ops need a resolvable target; before anything is in the pool
	// (tick 0 of a providerless plan) they degrade to observes, which is
	// itself a deterministic decision.
	if op != "observe" && len(gs.pool) == 0 {
		op = "observe"
	}
	pick := func(k uint64) string {
		i := netsim.Mix(seed, domTargetPick, uint64(t), uint64(j), k) % uint64(len(gs.pool))
		return gs.pool[i]
	}
	so := schedOp{gs: gs}
	switch op {
	case "observe":
		reps := make([]string, 0, 2)
		for k := 0; k < 2; k++ {
			idx := int(netsim.Mix(seed, domReplicaPick, uint64(t), uint64(j), uint64(k)) % uint64(gs.g.Replicas))
			reps = append(reps, r.replica(gs, idx))
		}
		so.req = crpdaemon.Request{Op: "observe", Node: self, Replicas: reps}
		so.observeNode = self
		so.observeReps = reps
	case "closest":
		so.req = crpdaemon.Request{Op: "closest", Client: pick(0), K: 1, NS: gs.g.NS}
	case "topk":
		so.req = crpdaemon.Request{Op: "closest", Client: pick(0), K: 8, NS: gs.g.NS}
	case "similarity":
		so.req = crpdaemon.Request{Op: "similarity", A: pick(0), B: pick(1), NS: gs.g.NS}
	case "cluster":
		so.req = crpdaemon.Request{Op: "distinct_clusters", N: 4}
	}
	return so
}

// promoteTick moves tick t's observed identities into their groups' target
// pools, in schedule order, so tick t+1 may query them.
func promoteTick(ops []schedOp) {
	for i := range ops {
		if ops[i].observeNode != "" && ops[i].gs.ar != nil {
			ops[i].gs.promote(ops[i].observeNode)
		}
	}
}

func encodeOp(so *schedOp) ([]byte, error) {
	raw, err := crpdaemon.EncodeRequest(&so.req, so.gs.bin)
	if err != nil {
		return nil, fmt.Errorf("scenario: encode %s for group %s: %w", so.req.Op, so.gs.g.Name, err)
	}
	return raw, nil
}

func (r *runner) newService() (*crp.Service, error) {
	svc := crp.NewServiceWithStore(crp.StoreConfig{Shards: r.p.Shards}, crp.WithWindow(storeWindow))
	if r.p.AggregateBits > 0 {
		if err := svc.EnableAggregation(crp.AggregatorConfig{KeyOf: crp.PrefixKeyFunc(r.p.AggregateBits)}); err != nil {
			return nil, err
		}
	}
	return svc, nil
}

func (r *runner) faultPlane() (*faults.Plane, error) {
	if len(r.p.Faults.Faults) == 0 {
		return nil, nil
	}
	return faults.New(nil, r.p.Faults, faults.WithClock(r.planClock))
}

// ---------------------------------------------------------------------------
// mem transport: single-threaded, virtual clock, byte-replayable end to end.

func (r *runner) runMem() (*Report, error) {
	p := r.p
	plane, err := r.faultPlane()
	if err != nil {
		return nil, err
	}

	now := scenarioBase
	clock := func() time.Time { return now }

	mesh := peering.NewMemMesh()
	var daemons []*crpdaemon.Daemon
	var svcs []*crp.Service
	var engines []*peering.Peering
	var conns []net.PacketConn
	for i := 0; i < p.Daemons; i++ {
		svc, err := r.newService()
		if err != nil {
			return nil, err
		}
		var eng *peering.Peering
		if p.Daemons > 1 {
			addr := fmt.Sprintf("mem-d%02d", i)
			var pc net.PacketConn = mesh.Conn(addr)
			if plane != nil {
				pc = plane.WrapPacketConn(pc, "gossip")
			}
			eng, err = peering.New(peering.Config{
				Self:     fmt.Sprintf("daemon-%02d", i),
				Addr:     addr,
				Service:  svc,
				Seed:     p.Seed + uint64(i)*7919,
				Now:      clock,
				Resolve:  mesh.Resolve,
				Registry: r.reg,
			})
			if err != nil {
				return nil, err
			}
			eng.Attach(pc)
			conns = append(conns, pc)
			engines = append(engines, eng)
		}
		d, err := crpdaemon.New(svc, crpdaemon.Config{Registry: r.reg, Now: clock, Peering: eng})
		if err != nil {
			return nil, err
		}
		daemons = append(daemons, d)
		svcs = append(svcs, svc)
	}
	for i, eng := range engines {
		for j := 0; j < p.Daemons; j++ {
			if j != i {
				if err := eng.AddPeer(fmt.Sprintf("daemon-%02d", j), fmt.Sprintf("mem-d%02d", j)); err != nil {
					return nil, err
				}
			}
		}
	}

	// The mirror service replays every observe (same node, same virtual
	// timestamp, same replicas) into one merged store: the fidelity
	// reference a converged mesh must byte-match.
	var mirror *crp.Service
	if p.Envelope.RequireSnapshotMatch {
		if mirror, err = r.newService(); err != nil {
			return nil, err
		}
	}

	// The drift monitor watches daemon 0's compiled stream on the virtual
	// clock, so its frame timestamps and event sequence replay exactly.
	var mon *drift.Monitor
	var driftFrames int
	var driftEvents []drift.Event
	if p.Drift != nil {
		mon, err = drift.NewMonitor(svcs[0], drift.DefaultSensitivity,
			drift.WithRegistry(r.reg), drift.WithClock(clock))
		if err != nil {
			return nil, err
		}
	}

	exec := func(so *schedOp) error {
		raw, err := encodeOp(so)
		if err != nil {
			return err
		}
		start := time.Now()
		wire := daemons[so.gs.g.Home].Handle(raw)
		resp, _, err := crpdaemon.DecodeResponse(wire)
		if err != nil {
			return fmt.Errorf("scenario: decode reply for group %s: %w", so.gs.g.Name, err)
		}
		so.gs.offered++
		so.gs.cOffered.Inc()
		so.gs.recordOutcome(resp, time.Since(start))
		if resp.OK && so.observeNode != "" && mirror != nil {
			reps := make([]crp.ReplicaID, len(so.observeReps))
			for i, rep := range so.observeReps {
				reps[i] = crp.ReplicaID(rep)
			}
			if err := mirror.Observe(crp.NodeID(so.observeNode), now, reps...); err != nil {
				return err
			}
		}
		return nil
	}

	// Gossip plumbing: one engine round = tick every engine at the current
	// virtual instant, then pump the fabric dry in index order.
	buf := make([]byte, peering.MaxMsgSize+1)
	round := func() {
		for _, eng := range engines {
			eng.Tick(now)
		}
		for progress := true; progress; {
			progress = false
			for i, pc := range conns {
				for {
					n, from, err := pc.ReadFrom(buf)
					if err != nil {
						break
					}
					engines[i].HandleDatagram(buf[:n], from)
					progress = true
				}
			}
		}
	}
	wallStart := time.Now()

	// Provider seeding: one virtual minute per probe round, through the
	// daemon op path, so seeded state is metered like everything else.
	for k := 0; k < r.maxProbes; k++ {
		now = scenarioBase.Add(time.Duration(k) * time.Minute)
		for _, so := range r.seedOps(k) {
			if err := exec(&so); err != nil {
				return nil, err
			}
		}
	}
	seedEnd := scenarioBase.Add(time.Duration(r.maxProbes) * time.Minute)

	// Driven window: schedule, execute, promote, gossip — one tick at a
	// time on the virtual clock.
	ticks := p.Ticks()
	for t := 0; t < ticks; t++ {
		now = seedEnd.Add(time.Duration(t) * tick)
		r.planClock.Set(now.Sub(seedEnd))
		ops := r.buildTick(t)
		for i := range ops {
			if err := exec(&ops[i]); err != nil {
				return nil, err
			}
		}
		promoteTick(ops)
		if len(engines) > 0 {
			round()
		}
		if mon != nil && (t+1)%p.Drift.Every == 0 {
			driftFrames++
			driftEvents = append(driftEvents, mon.Tick()...)
		}
	}

	// Convergence phase: keep gossiping past the window until the digests
	// agree or the round budget runs out.
	det := r.newDetReport()
	det.Converged = p.Daemons == 1
	if len(engines) > 0 {
		maxRounds := p.Envelope.MaxConvergeRounds
		if maxRounds == 0 {
			maxRounds = 50
		}
		if digestsEqual(svcs) {
			det.Converged = true
		} else {
			for rd := 1; rd <= maxRounds; rd++ {
				now = now.Add(tick)
				r.planClock.Set(now.Sub(seedEnd))
				round()
				if digestsEqual(svcs) {
					det.Converged = true
					det.ConvergeRounds = rd
					break
				}
			}
		}
	}

	if mirror != nil && det.Converged {
		var ref bytes.Buffer
		if err := mirror.WriteSnapshot(&ref); err != nil {
			return nil, err
		}
		det.SnapshotMatch = true
		for _, svc := range svcs {
			var got bytes.Buffer
			if err := svc.WriteSnapshot(&got); err != nil {
				return nil, err
			}
			if !bytes.Equal(ref.Bytes(), got.Bytes()) {
				det.SnapshotMatch = false
				break
			}
		}
	}
	if plane != nil {
		det.Activations = plane.Activations()
	}
	det.DriftFrames = driftFrames
	det.DriftEvents = driftEvents

	rep := r.finishReport(det, wallStart, 0, nil)

	// Stats through the op path, daemon 0, same as a wire client would.
	statsRaw, err := crpdaemon.EncodeRequest(&crpdaemon.Request{Op: "stats"}, false)
	if err != nil {
		return nil, err
	}
	resp, _, err := crpdaemon.DecodeResponse(daemons[0].Handle(statsRaw))
	if err != nil {
		return nil, err
	}
	rep.Stats = resp.Stats
	return rep, nil
}

// ---------------------------------------------------------------------------
// udp transport: real sockets, real clocks, concurrent clients.

const (
	udpAttempts     = 8
	udpReadDeadline = 1 * time.Second
	udpConvergeWait = 10 * time.Second
)

// udpClient is one worker's connected socket to its group's home daemon.
// Workers are synchronous, so request/response pairing needs no IDs — and a
// timeout redials, so a late reply to an abandoned attempt lands on a dead
// port instead of corrupting the next exchange.
type udpClient struct {
	addr string
	conn net.Conn
	buf  []byte
}

func dialUDP(addr string) (*udpClient, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	return &udpClient{addr: addr, conn: conn, buf: make([]byte, crpdaemon.MaxReplySize+1)}, nil
}

func (c *udpClient) close() {
	if c.conn != nil {
		c.conn.Close()
	}
}

func (c *udpClient) exchange(raw []byte, retries *obs.Counter) (crpdaemon.Response, time.Duration, error) {
	start := time.Now()
	for attempt := 0; attempt < udpAttempts; attempt++ {
		if attempt > 0 {
			retries.Inc()
			c.conn.Close()
			conn, err := net.Dial("udp", c.addr)
			if err != nil {
				return crpdaemon.Response{}, 0, err
			}
			c.conn = conn
		}
		if _, err := c.conn.Write(raw); err != nil {
			continue
		}
		c.conn.SetReadDeadline(time.Now().Add(udpReadDeadline))
		n, err := c.conn.Read(c.buf)
		if err != nil {
			continue
		}
		resp, _, err := crpdaemon.DecodeResponse(c.buf[:n])
		if err != nil {
			return crpdaemon.Response{}, 0, fmt.Errorf("scenario: decode reply: %w", err)
		}
		return resp, time.Since(start), nil
	}
	return crpdaemon.Response{}, 0, fmt.Errorf("scenario: no reply from %s after %d attempts", c.addr, udpAttempts)
}

func (r *runner) runUDP() (*Report, error) {
	p := r.p
	plane, err := r.faultPlane()
	if err != nil {
		return nil, err
	}

	var daemons []*crpdaemon.Daemon
	var svcs []*crp.Service
	var engines []*peering.Peering
	var gossipConns []net.PacketConn
	defer func() {
		for _, eng := range engines {
			eng.Close()
		}
		for _, d := range daemons {
			d.Close()
		}
	}()

	for i := 0; i < p.Daemons; i++ {
		svc, err := r.newService()
		if err != nil {
			return nil, err
		}
		var eng *peering.Peering
		if p.Daemons > 1 {
			gpc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			var pc net.PacketConn = gpc
			if plane != nil {
				pc = plane.WrapPacketConn(pc, "gossip")
			}
			eng, err = peering.New(peering.Config{
				Self:     fmt.Sprintf("daemon-%02d", i),
				Addr:     gpc.LocalAddr().String(),
				Service:  svc,
				Interval: 20 * time.Millisecond,
				Seed:     p.Seed + uint64(i)*7919,
				Registry: r.reg,
			})
			if err != nil {
				pc.Close()
				return nil, err
			}
			eng.Attach(pc)
			engines = append(engines, eng)
			gossipConns = append(gossipConns, pc)
		}
		qpc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		d, err := crpdaemon.Serve(qpc, svc, crpdaemon.Config{Registry: r.reg, Peering: eng})
		if err != nil {
			qpc.Close()
			return nil, err
		}
		daemons = append(daemons, d)
		svcs = append(svcs, svc)
	}
	for i, eng := range engines {
		for j := 0; j < p.Daemons; j++ {
			if j != i {
				if err := eng.AddPeer(fmt.Sprintf("daemon-%02d", j), gossipConns[j].LocalAddr().String()); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, eng := range engines {
		if err := eng.Start(); err != nil {
			return nil, err
		}
	}

	// Per-group worker pools: min(8, size) connected sockets each, fed a
	// channel per tick with a barrier, so offered load is paced and
	// lockstep within the tick.
	type workItem struct {
		so *schedOp
		wg *sync.WaitGroup
	}
	var groupCh []chan workItem
	var workerWG sync.WaitGroup
	var workerErrMu sync.Mutex
	var workerErr error
	defer func() {
		for _, ch := range groupCh {
			if ch != nil {
				close(ch)
			}
		}
		workerWG.Wait()
	}()
	groupCh = make([]chan workItem, len(r.groups))
	for gi, gs := range r.groups {
		w := min(8, gs.g.Size)
		ch := make(chan workItem, 4*w)
		groupCh[gi] = ch
		addr := daemons[gs.g.Home].Addr().String()
		for k := 0; k < w; k++ {
			cli, err := dialUDP(addr)
			if err != nil {
				return nil, err
			}
			workerWG.Add(1)
			go func(gs *groupState, cli *udpClient) {
				defer workerWG.Done()
				defer cli.close()
				for item := range ch {
					raw, err := encodeOp(item.so)
					if err == nil {
						var resp crpdaemon.Response
						var rtt time.Duration
						resp, rtt, err = cli.exchange(raw, gs.cRetries)
						if err == nil {
							gs.recordOutcome(resp, rtt)
						}
					}
					if err != nil {
						workerErrMu.Lock()
						if workerErr == nil {
							workerErr = err
						}
						workerErrMu.Unlock()
					}
					item.wg.Done()
				}
			}(gs, cli)
		}
	}
	dispatch := func(ops []schedOp) error {
		var wg sync.WaitGroup
		for i := range ops {
			ops[i].gs.offered++
			ops[i].gs.cOffered.Inc()
			wg.Add(1)
			groupCh[ops[i].gs.idx] <- workItem{so: &ops[i], wg: &wg}
		}
		wg.Wait()
		workerErrMu.Lock()
		err := workerErr
		workerErrMu.Unlock()
		return err
	}

	wallStart := time.Now()
	for k := 0; k < r.maxProbes; k++ {
		if err := dispatch(r.seedOps(k)); err != nil {
			return nil, err
		}
	}

	// Driven window, paced against the wall clock: tick t's schedule is
	// released at start + t*tick, so the declared QPS is the real offered
	// rate (a slow tick just starts the next one immediately).
	ticks := p.Ticks()
	loadStart := time.Now()
	for t := 0; t < ticks; t++ {
		if wait := time.Until(loadStart.Add(time.Duration(t) * tick)); wait > 0 {
			time.Sleep(wait)
		}
		r.planClock.Set(time.Duration(t) * tick)
		ops := r.buildTick(t)
		if err := dispatch(ops); err != nil {
			return nil, err
		}
		promoteTick(ops)
	}

	// Convergence: poll the digests until they agree mesh-wide.
	det := r.newDetReport()
	det.Converged = p.Daemons == 1
	var convergeWait time.Duration
	if p.Daemons > 1 {
		convergeStart := time.Now()
		deadline := convergeStart.Add(udpConvergeWait)
		for {
			if digestsEqual(svcs) {
				det.Converged = true
				convergeWait = time.Since(convergeStart)
				break
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	var activations map[faults.Kind]uint64
	if plane != nil {
		activations = plane.Activations()
	}
	rep := r.finishReport(det, wallStart, convergeWait, activations)

	// Stats over the wire from daemon 0 — the end-to-end export proof.
	cli, err := dialUDP(daemons[0].Addr().String())
	if err != nil {
		return nil, err
	}
	defer cli.close()
	statsRaw, err := crpdaemon.EncodeRequest(&crpdaemon.Request{Op: "stats"}, false)
	if err != nil {
		return nil, err
	}
	resp, _, err := cli.exchange(statsRaw, r.reg.Counter("scenario.stats.retries"))
	if err != nil {
		return nil, err
	}
	rep.Stats = resp.Stats
	return rep, nil
}

// digestsEqual reports whether every daemon's shard digests equal daemon
// 0's: the convergence test of both transports.
func digestsEqual(svcs []*crp.Service) bool {
	ref := svcs[0].ShardDigests()
	for _, svc := range svcs[1:] {
		if !slices.Equal(svc.ShardDigests(), ref) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// report assembly and envelope evaluation

func (r *runner) newDetReport() *DetReport {
	return &DetReport{
		Name:      r.p.Name,
		Seed:      r.p.Seed,
		Transport: r.p.Transport,
		Daemons:   r.p.Daemons,
		Ticks:     r.p.Ticks(),
	}
}

func (r *runner) finishReport(det *DetReport, wallStart time.Time, convergeWait time.Duration, udpActivations map[faults.Kind]uint64) *Report {
	e := &r.p.Envelope
	timing := TimingReport{
		WallMs:         ms(time.Since(wallStart)),
		ConvergeWaitMs: ms(convergeWait),
		Activations:    udpActivations,
	}

	for _, gs := range r.groups {
		det.Groups = append(det.Groups, GroupDet{
			Name:      gs.g.Name,
			Kind:      gs.g.Kind,
			Size:      gs.g.Size,
			Offered:   gs.offered,
			Completed: gs.completed,
			Errored:   gs.errored,
			Expected:  math.Round(gs.expected*1000) / 1000,
		})
		if gs.ar == nil {
			continue
		}
		gt := GroupTiming{
			Name:    gs.g.Name,
			P50Ms:   ms(percentile(gs.lats, 0.50)),
			P99Ms:   ms(percentile(gs.lats, 0.99)),
			MaxMs:   ms(percentile(gs.lats, 1.0)),
			Retries: gs.cRetries.Value(),
		}
		timing.Groups = append(timing.Groups, gt)

		gate := func(name string) string { return fmt.Sprintf("%s[%s]", name, gs.g.Name) }
		if gs.g.Kind == KindClients {
			if e.MaxErrorRate != nil {
				rate := 0.0
				if gs.offered > 0 {
					rate = float64(gs.errored) / float64(gs.offered)
				}
				det.Verdicts = append(det.Verdicts, verdict(gate("error-rate"), rate <= *e.MaxErrorRate,
					"%d/%d errored (%.4f, budget %.4f)", gs.errored, gs.offered, rate, *e.MaxErrorRate))
			}
			if e.MinCompleted > 0 {
				det.Verdicts = append(det.Verdicts, verdict(gate("min-completed"), gs.completed >= uint64(e.MinCompleted),
					"%d completed, floor %d", gs.completed, e.MinCompleted))
			}
			if e.MaxP99Ms > 0 {
				timing.Verdicts = append(timing.Verdicts, verdict(gate("p99"), gt.P99Ms <= e.MaxP99Ms,
					"p99 %.3fms, bound %.1fms", gt.P99Ms, e.MaxP99Ms))
			}
		}
		if e.MaxRateError > 0 && gs.expected > 0 {
			relErr := math.Abs(float64(gs.offered)-gs.expected) / gs.expected
			det.Verdicts = append(det.Verdicts, verdict(gate("rate"), relErr <= e.MaxRateError,
				"offered %d vs expected %.1f (err %.4f, bound %.4f)", gs.offered, gs.expected, relErr, e.MaxRateError))
		}
	}

	if e.RequireConverged || e.MaxConvergeRounds > 0 {
		det.Verdicts = append(det.Verdicts, verdict("converged", det.Converged,
			"mesh digest equality: %v", det.Converged))
	}
	if e.MaxConvergeRounds > 0 {
		det.Verdicts = append(det.Verdicts, verdict("converge-rounds",
			det.Converged && det.ConvergeRounds <= e.MaxConvergeRounds,
			"%d rounds past the window, bound %d", det.ConvergeRounds, e.MaxConvergeRounds))
	}
	if e.RequireSnapshotMatch {
		det.Verdicts = append(det.Verdicts, verdict("snapshot-match", det.SnapshotMatch,
			"converged stores byte-match the merged-stream mirror: %v", det.SnapshotMatch))
	}
	if e.MaxDriftEvents != nil {
		det.Verdicts = append(det.Verdicts, verdict("drift-events",
			len(det.DriftEvents) <= *e.MaxDriftEvents,
			"%d detector events over %d frames, budget %d",
			len(det.DriftEvents), det.DriftFrames, *e.MaxDriftEvents))
	}

	det.AllPass = true
	for _, v := range det.Verdicts {
		det.AllPass = det.AllPass && v.Pass
	}
	timing.AllPass = true
	for _, v := range timing.Verdicts {
		timing.AllPass = timing.AllPass && v.Pass
	}
	r.logf("scenario %s: %d det gates, %d timing gates, allPass=%v",
		r.p.Name, len(det.Verdicts), len(timing.Verdicts), det.AllPass && timing.AllPass)
	return &Report{Det: *det, Timing: timing}
}
