package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/crp"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/peering"
)

// The gossip experiment asks the distributed-systems question the
// single-daemon experiments cannot: when N crpd daemons each ingest a
// disjoint slice of the probe stream and replicate through the peering
// plane, do they converge to the *same* store — and to the store a single
// daemon fed the merged stream would hold? The harness is fully
// deterministic: an in-memory mesh instead of UDP sockets, a virtual clock
// instead of wall time, seeded RNGs everywhere, and a single-threaded pump
// that delivers packets in a fixed order. The fault plane wraps every mesh
// conn, so packet loss/dup/reorder scenarios replay bit-identically too.

// GossipConfig parameterizes one multi-daemon convergence run.
type GossipConfig struct {
	// Daemons is the mesh size (full mesh membership). Default 3.
	Daemons int
	// NodesPerDaemon is how many distinct nodes each daemon observes; the
	// streams are disjoint, so total state is Daemons*NodesPerDaemon nodes.
	// Default 40.
	NodesPerDaemon int
	// ProbesPerNode is the per-node probe count in each stream. Default 8.
	ProbesPerNode int
	// Replicas is the replica-ID pool size probes draw from. Default 12.
	Replicas int
	// Fanout / TTL shape rumor mongering (peering.Config semantics).
	// Defaults 2 / 3.
	Fanout int
	TTL    int
	// MaxRounds bounds each convergence phase (initial spread, and again
	// for forget propagation). Default 50.
	MaxRounds int
	// Window / Shards shape every daemon's store identically (digest
	// comparison requires equal widths). Defaults 10 / 64.
	Window int
	Shards int
	// Seed drives stream generation and each engine's fanout RNG.
	Seed uint64
	// Faults is applied to every gossip conn under the label "gossip".
	// Leave empty for a clean run.
	Faults faults.Scenario
	// Registry receives every engine's peering.* counters (shared across
	// the mesh, so tests can pin process-level observability). Default: a
	// fresh private registry.
	Registry *obs.Registry
}

func (c *GossipConfig) setDefaults() {
	if c.Daemons == 0 {
		c.Daemons = 3
	}
	if c.NodesPerDaemon == 0 {
		c.NodesPerDaemon = 40
	}
	if c.ProbesPerNode == 0 {
		c.ProbesPerNode = 8
	}
	if c.Replicas == 0 {
		c.Replicas = 12
	}
	if c.Fanout == 0 {
		c.Fanout = 2
	}
	if c.TTL == 0 {
		c.TTL = 3
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 50
	}
	if c.Window == 0 {
		c.Window = 10
	}
	if c.Shards == 0 {
		c.Shards = 64
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
}

// GossipOutcome is the result of one convergence run. Every field is a
// deterministic function of the config, so marshaled outcomes are
// byte-identical across reruns — the bench's determinism gate depends on it.
type GossipOutcome struct {
	Daemons int `json:"daemons"`
	Nodes   int `json:"nodes"`
	// Converged reports whether all stores reached identical shard digests
	// within MaxRounds; RoundsToConverge is the round it happened (0 when
	// it never did).
	Converged        bool `json:"converged"`
	RoundsToConverge int  `json:"roundsToConverge"`
	// SnapshotMatch reports whether every daemon's compiled snapshot is
	// byte-identical to a single daemon fed the merged stream;
	// SnapshotBytes is that snapshot's size.
	SnapshotMatch bool `json:"snapshotMatch"`
	SnapshotBytes int  `json:"snapshotBytes"`
	// ForgetPropagated reports whether a Forget issued on one daemon
	// disappeared from every store; ForgetRounds is how long that took.
	ForgetPropagated bool `json:"forgetPropagated"`
	ForgetRounds     int  `json:"forgetRounds"`
	// Stats are the per-daemon engine counters at quiescence.
	Stats []peering.StatsSnapshot `json:"stats"`
	// Activations counts, per fault kind, how often the plane fired. A
	// test asserting a fault's effect must first assert it activated.
	Activations map[faults.Kind]uint64 `json:"activations,omitempty"`
}

// GossipEnvelope declares what a gossip run must achieve. Zero-valued
// fields are not checked.
type GossipEnvelope struct {
	// MaxRounds bounds RoundsToConverge (and ForgetRounds).
	MaxRounds int
}

// Check asserts the outcome converged, replicated faithfully and stayed
// within the envelope.
func (o *GossipOutcome) Check(env GossipEnvelope) error {
	if !o.Converged {
		return errors.New("experiment: gossip mesh did not converge")
	}
	if !o.SnapshotMatch {
		return errors.New("experiment: converged stores differ from the merged-stream store")
	}
	if !o.ForgetPropagated {
		return errors.New("experiment: forget did not propagate mesh-wide")
	}
	if env.MaxRounds > 0 {
		if o.RoundsToConverge > env.MaxRounds {
			return fmt.Errorf("experiment: convergence took %d rounds, beyond %d", o.RoundsToConverge, env.MaxRounds)
		}
		if o.ForgetRounds > env.MaxRounds {
			return fmt.Errorf("experiment: forget propagation took %d rounds, beyond %d", o.ForgetRounds, env.MaxRounds)
		}
	}
	return nil
}

// gossipMesh is the assembled deterministic mesh: engines, their
// fault-wrapped conns, and the virtual clock.
type gossipMesh struct {
	mesh    *peering.MemMesh
	svcs    []*crp.Service
	engines []*peering.Peering
	conns   []net.PacketConn
	now     time.Time
	buf     []byte
}

// RunGossip builds a full mesh of cfg.Daemons daemons over an in-memory
// packet substrate, feeds each a disjoint probe stream, pumps gossip rounds
// until the stores converge, compares the result against a single daemon
// fed the merged stream, then verifies a Forget issued on the last daemon
// disappears mesh-wide.
func RunGossip(cfg GossipConfig) (*GossipOutcome, error) {
	cfg.setDefaults()
	if cfg.Daemons < 2 {
		return nil, fmt.Errorf("experiment: gossip needs >= 2 daemons, got %d", cfg.Daemons)
	}

	var plane *faults.Plane
	if len(cfg.Faults.Faults) > 0 {
		var err error
		// The gossip links are pure packet paths; no topology needed.
		plane, err = faults.New(nil, cfg.Faults)
		if err != nil {
			return nil, err
		}
	}

	gm := &gossipMesh{
		mesh: peering.NewMemMesh(),
		now:  time.Unix(1_800_000_000, 0),
		// One byte beyond the bound, mirroring the real read loop: a
		// maximum-size datagram must not be confused with a truncated
		// larger one.
		buf: make([]byte, peering.MaxMsgSize+1),
	}
	clock := func() time.Time { return gm.now }

	for i := 0; i < cfg.Daemons; i++ {
		addr := fmt.Sprintf("mem-d%02d", i)
		var pc net.PacketConn = gm.mesh.Conn(addr)
		if plane != nil {
			pc = plane.WrapPacketConn(pc, "gossip")
		}
		svc := crp.NewServiceWithStore(crp.StoreConfig{Shards: cfg.Shards}, crp.WithWindow(cfg.Window))
		eng, err := peering.New(peering.Config{
			Self:     fmt.Sprintf("daemon-%02d", i),
			Addr:     addr,
			Service:  svc,
			Fanout:   cfg.Fanout,
			TTL:      cfg.TTL,
			Seed:     cfg.Seed + uint64(i)*7919,
			Now:      clock,
			Resolve:  gm.mesh.Resolve,
			Registry: cfg.Registry,
		})
		if err != nil {
			return nil, err
		}
		eng.Attach(pc)
		gm.svcs = append(gm.svcs, svc)
		gm.engines = append(gm.engines, eng)
		gm.conns = append(gm.conns, pc)
	}
	for i, eng := range gm.engines {
		for j := 0; j < cfg.Daemons; j++ {
			if j == i {
				continue
			}
			if err := eng.AddPeer(fmt.Sprintf("daemon-%02d", j), fmt.Sprintf("mem-d%02d", j)); err != nil {
				return nil, err
			}
		}
	}

	// Disjoint streams, plus the merged-stream reference daemon. The same
	// (node, at, replicas) tuples go to both sides, so a faithful
	// replication converges to the reference's exact probe windows.
	merged := crp.NewServiceWithStore(crp.StoreConfig{Shards: cfg.Shards}, crp.WithWindow(cfg.Window))
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	for i := 0; i < cfg.Daemons; i++ {
		for j := 0; j < cfg.NodesPerDaemon; j++ {
			node := crp.NodeID(fmt.Sprintf("d%02d-n%03d", i, j))
			for k := 0; k < cfg.ProbesPerNode; k++ {
				at := gm.now.Add(time.Duration(k) * time.Minute)
				replicas := make([]crp.ReplicaID, 0, 3)
				for r := 0; r < 3; r++ {
					replicas = append(replicas, crp.ReplicaID(fmt.Sprintf("r%02d", rng.Intn(cfg.Replicas))))
				}
				if err := gm.svcs[i].Observe(node, at, replicas...); err != nil {
					return nil, err
				}
				if err := merged.Observe(node, at, replicas...); err != nil {
					return nil, err
				}
			}
		}
	}
	gm.now = gm.now.Add(time.Duration(cfg.ProbesPerNode)*time.Minute + time.Minute)

	out := &GossipOutcome{
		Daemons: cfg.Daemons,
		Nodes:   cfg.Daemons * cfg.NodesPerDaemon,
	}

	// Phase 1: converge the disjoint streams.
	for round := 1; round <= cfg.MaxRounds; round++ {
		gm.step()
		if gm.converged() {
			out.Converged = true
			out.RoundsToConverge = round
			break
		}
	}

	// Byte-identical replication check against the merged-stream daemon.
	if out.Converged {
		var ref bytes.Buffer
		if err := merged.WriteSnapshot(&ref); err != nil {
			return nil, err
		}
		out.SnapshotBytes = ref.Len()
		out.SnapshotMatch = true
		for _, svc := range gm.svcs {
			var got bytes.Buffer
			if err := svc.WriteSnapshot(&got); err != nil {
				return nil, err
			}
			if !bytes.Equal(ref.Bytes(), got.Bytes()) {
				out.SnapshotMatch = false
				break
			}
		}
	}

	// Phase 2: a Forget issued on the *last* daemon (never the origin of
	// daemon-00's nodes) must disappear from every store.
	if out.Converged {
		victim := crp.NodeID("d00-n000")
		gm.svcs[cfg.Daemons-1].Forget(victim)
		for round := 1; round <= cfg.MaxRounds; round++ {
			gm.step()
			if gm.converged() && gm.forgotten(victim) {
				out.ForgetPropagated = true
				out.ForgetRounds = round
				break
			}
		}
	}

	for _, eng := range gm.engines {
		out.Stats = append(out.Stats, eng.Stats())
	}
	if plane != nil {
		out.Activations = plane.Activations()
	}
	return out, nil
}

// step advances the virtual clock one second, ticks every engine in index
// order, then pumps the mesh until a full pass delivers nothing. Reply
// cascades (digest -> diff -> push/pull -> delta) settle within the pump;
// re-enqueued rumors wait for the next round's ticks, so each step
// terminates.
func (gm *gossipMesh) step() {
	gm.now = gm.now.Add(time.Second)
	for _, eng := range gm.engines {
		eng.Tick(gm.now)
	}
	for progress := true; progress; {
		progress = false
		for i, pc := range gm.conns {
			for {
				n, from, err := pc.ReadFrom(gm.buf)
				if err != nil {
					break // queue drained (or every queued packet lost)
				}
				gm.engines[i].HandleDatagram(gm.buf[:n], from)
				progress = true
			}
		}
	}
}

// converged reports whether every store's shard digests match daemon 0's.
// The digest covers node, origin, version and deletion state, so equality
// means identical replicated metadata (and, via wholesale window
// replacement on apply, identical probe windows).
func (gm *gossipMesh) converged() bool {
	ref := gm.svcs[0].ShardDigests()
	for _, svc := range gm.svcs[1:] {
		got := svc.ShardDigests()
		for i := range ref {
			if got[i] != ref[i] {
				return false
			}
		}
	}
	return true
}

// forgotten reports whether no store can resolve the node any more.
func (gm *gossipMesh) forgotten(node crp.NodeID) bool {
	for _, svc := range gm.svcs {
		if _, err := svc.RatioMap(node); err == nil {
			return false
		}
	}
	return true
}
