package peering

import (
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/crp"
	"repro/internal/faults"
	"repro/internal/obs"
)

// testMesh is a small deterministic mesh of peering engines driven by hand:
// no goroutines, no tickers — Tick and pump are called explicitly.
type testMesh struct {
	mesh    *MemMesh
	svcs    []*crp.Service
	engines []*Peering
	conns   []net.PacketConn
	clock   time.Time
}

func newTestMesh(t testing.TB, n int, shape crp.StoreConfig) *testMesh {
	t.Helper()
	tm := &testMesh{mesh: NewMemMesh(), clock: time.Unix(1_800_000_000, 0)}
	now := func() time.Time { return tm.clock }
	for i := 0; i < n; i++ {
		id := string(rune('a'+i)) + "-daemon"
		svc := crp.NewServiceWithStore(shape, crp.WithWindow(10))
		p, err := New(Config{
			Self: id, Addr: id, Service: svc,
			Seed: uint64(100 + i),
			Now:  now, Resolve: tm.mesh.Resolve, Registry: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Attach(tm.mesh.Conn(id))
		tm.svcs = append(tm.svcs, svc)
		tm.engines = append(tm.engines, p)
		tm.conns = append(tm.conns, tm.mesh.Conn(id))
	}
	return tm
}

// fullMesh adds every engine as a peer of every other, bypassing the join
// handshake (which has its own test).
func (tm *testMesh) fullMesh(t testing.TB) {
	t.Helper()
	for i, p := range tm.engines {
		for j, q := range tm.engines {
			if i == j {
				continue
			}
			if err := p.AddPeer(q.cfg.Self, q.cfg.Addr); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// pump drains the fabric: for each engine in order, read every queued
// datagram and handle it; repeat until a full pass delivers nothing.
func (tm *testMesh) pump() {
	buf := make([]byte, MaxMsgSize)
	for progress := true; progress; {
		progress = false
		for i, pc := range tm.conns {
			for {
				n, from, err := pc.ReadFrom(buf)
				if err != nil {
					break
				}
				tm.engines[i].HandleDatagram(buf[:n], from)
				progress = true
			}
		}
	}
}

// tickAll advances the virtual clock and runs one gossip round everywhere.
func (tm *testMesh) tickAll() {
	tm.clock = tm.clock.Add(time.Second)
	for _, p := range tm.engines {
		p.Tick(tm.clock)
	}
	tm.pump()
}

// converged reports whether every engine's store digests match engine 0's.
func (tm *testMesh) converged() bool {
	ref := tm.svcs[0].ShardDigests()
	for _, svc := range tm.svcs[1:] {
		if !reflect.DeepEqual(svc.ShardDigests(), ref) {
			return false
		}
	}
	return true
}

func (tm *testMesh) converge(t *testing.T, maxRounds int) int {
	t.Helper()
	for r := 1; r <= maxRounds; r++ {
		tm.tickAll()
		if tm.converged() {
			return r
		}
	}
	t.Fatalf("mesh did not converge within %d rounds", maxRounds)
	return 0
}

func TestJoinHandshakeMeshesBothSides(t *testing.T) {
	tm := newTestMesh(t, 2, crp.StoreConfig{Shards: 8})
	if err := tm.engines[0].Join(tm.engines[1].cfg.Addr); err != nil {
		t.Fatal(err)
	}
	tm.pump()
	s0, s1 := tm.engines[0].Status(), tm.engines[1].Status()
	if len(s0.Peers) != 1 || s0.Peers[0].ID != "b-daemon" {
		t.Fatalf("daemon a peers = %+v, want [b-daemon]", s0.Peers)
	}
	if len(s1.Peers) != 1 || s1.Peers[0].ID != "a-daemon" {
		t.Fatalf("daemon b peers = %+v, want [a-daemon]", s1.Peers)
	}
}

func TestRumorPropagatesObservation(t *testing.T) {
	tm := newTestMesh(t, 3, crp.StoreConfig{Shards: 8})
	tm.fullMesh(t)
	if err := tm.svcs[0].Observe("n1", time.Unix(1, 0), "r1", "r2"); err != nil {
		t.Fatal(err)
	}
	tm.converge(t, 5)
	for i, svc := range tm.svcs {
		rm, err := svc.RatioMap("n1")
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
		if len(rm) == 0 {
			t.Fatalf("daemon %d: empty ratio map", i)
		}
	}
	// The rumor path, not just anti-entropy, must have carried deltas.
	if applied := tm.engines[1].Stats().DeltasApplied + tm.engines[2].Stats().DeltasApplied; applied == 0 {
		t.Fatal("no deltas applied on the receiving daemons")
	}
}

func TestAntiEntropyRepairsMissedUpdate(t *testing.T) {
	tm := newTestMesh(t, 2, crp.StoreConfig{Shards: 8})
	tm.fullMesh(t)
	// Mutate daemon a's store but drop the rumor on the floor by clearing
	// the pending queue — only the digest exchange can repair this.
	if err := tm.svcs[0].Observe("n1", time.Unix(1, 0), "r1"); err != nil {
		t.Fatal(err)
	}
	tm.engines[0].mu.Lock()
	tm.engines[0].pending = map[crp.NodeID]int{}
	tm.engines[0].mu.Unlock()
	rounds := tm.converge(t, 5)
	if _, err := tm.svcs[1].RatioMap("n1"); err != nil {
		t.Fatalf("daemon b never learned n1 (converged in %d rounds): %v", rounds, err)
	}
	if tm.engines[1].Stats().Pulls == 0 && tm.engines[0].Stats().DeltasSent == 0 {
		t.Fatal("anti-entropy moved no data")
	}
}

func TestLastWriterWinsOnConcurrentUpdates(t *testing.T) {
	tm := newTestMesh(t, 2, crp.StoreConfig{Shards: 8})
	tm.fullMesh(t)
	// Both daemons observe the same node with different replica sets before
	// any gossip: equal versions, so the greater origin (b-daemon) must win
	// everywhere.
	if err := tm.svcs[0].Observe("n1", time.Unix(1, 0), "ra"); err != nil {
		t.Fatal(err)
	}
	if err := tm.svcs[1].Observe("n1", time.Unix(1, 0), "rb"); err != nil {
		t.Fatal(err)
	}
	tm.converge(t, 8)
	for i, svc := range tm.svcs {
		rm, err := svc.RatioMap("n1")
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
		if _, ok := rm["rb"]; !ok {
			t.Fatalf("daemon %d: ratio map %v, want b-daemon's write (rb) to win", i, rm)
		}
		if _, ok := rm["ra"]; ok {
			t.Fatalf("daemon %d: stale a-daemon write survived: %v", i, rm)
		}
	}
}

// TestForgetPropagatesAsTombstone runs on a clean mesh and with 30 % of
// received gossip datagrams dropped, where anti-entropy has to repair what
// the rumors lose.
func TestForgetPropagatesAsTombstone(t *testing.T) {
	cases := []struct {
		name                        string
		loss                        float64
		observeRounds, forgetRounds int
	}{
		{"clean", 0, 5, 8},
		{"loss-30pct", 0.3, 50, 50},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tm := newTestMesh(t, 3, crp.StoreConfig{Shards: 8})
			tm.fullMesh(t)
			var plane *faults.Plane
			if c.loss > 0 {
				var err error
				plane, err = faults.New(nil, faults.Scenario{Seed: 7, Faults: []faults.Fault{
					{Kind: faults.PacketLoss, Rate: c.loss, Target: "gossip"},
				}}, faults.WithRegistry(obs.NewRegistry()))
				if err != nil {
					t.Fatal(err)
				}
				for i, pc := range tm.conns {
					tm.conns[i] = plane.WrapPacketConn(pc, "gossip")
				}
			}
			if err := tm.svcs[0].Observe("n1", time.Unix(1, 0), "r1"); err != nil {
				t.Fatal(err)
			}
			tm.converge(t, c.observeRounds)
			// Forget on daemon b (not the origin) must disappear from all three.
			tm.svcs[1].Forget("n1")
			tm.converge(t, c.forgetRounds)
			for i, svc := range tm.svcs {
				if _, err := svc.RatioMap("n1"); err == nil {
					t.Fatalf("daemon %d still knows forgotten node n1", i)
				}
				if got := len(svc.Nodes()); got != 0 {
					t.Fatalf("daemon %d has %d nodes, want 0", i, got)
				}
				// Loss drops whole datagrams; what arrives must still decode.
				if bad := tm.engines[i].Stats().BadMsgs; bad != 0 {
					t.Fatalf("daemon %d rejected %d messages from its own mesh", i, bad)
				}
			}
			if plane != nil && plane.Activations()[faults.PacketLoss] == 0 {
				t.Fatal("packet loss never activated: the lossy row is vacuous")
			}
		})
	}
}

func TestTombstoneGCReclaimsAfterHorizon(t *testing.T) {
	tm := newTestMesh(t, 2, crp.StoreConfig{Shards: 8})
	tm.fullMesh(t)
	if err := tm.svcs[0].Observe("n1", time.Unix(1, 0), "r1"); err != nil {
		t.Fatal(err)
	}
	tm.converge(t, 5)
	tm.svcs[0].Forget("n1")
	tm.converge(t, 8)
	// Advance the clock past the GC horizon (default 10m): the next ticks
	// must reclaim the tombstones on both daemons without disturbing
	// convergence.
	tm.clock = tm.clock.Add(11 * time.Minute)
	tm.tickAll()
	gced := tm.engines[0].Stats().TombstonesGCed + tm.engines[1].Stats().TombstonesGCed
	if gced == 0 {
		t.Fatal("no tombstones reclaimed after the horizon")
	}
	if !tm.converged() {
		tm.converge(t, 5) // transient GC skew must heal
	}
}

func TestShapeMismatchIsCountedNotApplied(t *testing.T) {
	tm := newTestMesh(t, 1, crp.StoreConfig{Shards: 8})
	p := tm.engines[0]
	if err := p.AddPeer("z-daemon", "z-daemon"); err != nil {
		t.Fatal(err)
	}
	raw, err := encodePeerMsg(&Msg{Type: MsgDigest, From: "z-daemon", ShardCount: 4, Digests: []uint64{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	p.HandleDatagram(raw, memAddr("z-daemon"))
	if got := p.Stats().ShapeMismatch; got != 1 {
		t.Fatalf("shape mismatch counter = %d, want 1", got)
	}
}

// A digest is only read from a peer. From anyone else — matching, differing
// or mis-shaped — it must move no counter beyond msgs and draw no reply, as
// diffs and pulls from strangers already do; a matching one must not show up
// as convergence in peer-status.
func TestDigestFromUnknownSenderIsDropped(t *testing.T) {
	mesh := NewMemMesh()
	svc := crp.NewServiceWithStore(crp.StoreConfig{Shards: 4})
	p, err := New(Config{
		Self: "a-daemon", Addr: "a-daemon", Service: svc,
		Registry: obs.NewRegistry(), Resolve: mesh.Resolve, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	conn := &countingConn{PacketConn: mesh.Conn("a-daemon")}
	p.Attach(conn)
	if err := svc.Observe("n0", time.Unix(1, 0), "r1"); err != nil {
		t.Fatal(err)
	}
	local := svc.ShardDigests()
	differing := slices.Clone(local)
	differing[0]++
	for _, m := range []struct {
		what    string
		digests []uint64
	}{
		{"matching", local},
		{"differing", differing},
		{"mis-shaped", local[:2]},
	} {
		raw, err := encodePeerMsg(&Msg{Type: MsgDigest, From: "z-stranger", ShardCount: len(m.digests), Digests: m.digests})
		if err != nil {
			t.Fatal(err)
		}
		before := p.Status()
		p.HandleDatagram(raw, memAddr("z-stranger"))
		want := before
		want.Stats.Msgs++
		if got := p.Status(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s digest from a stranger moved engine state:\n got %+v\nwant %+v", m.what, got, want)
		}
		if conn.writes != 0 {
			t.Fatalf("%s digest from a stranger drew %d datagrams", m.what, conn.writes)
		}
	}
}

func TestStatusReportsPeersAndLag(t *testing.T) {
	tm := newTestMesh(t, 2, crp.StoreConfig{Shards: 8})
	tm.fullMesh(t)
	if err := tm.svcs[0].Observe("n1", time.Unix(1, 0), "r1"); err != nil {
		t.Fatal(err)
	}
	tm.converge(t, 8)
	tm.tickAll() // one quiescent round so the digest exchange records lag 0
	st := tm.engines[0].Status()
	if st.Self != "a-daemon" || st.ShardCount != 8 {
		t.Fatalf("status header wrong: %+v", st)
	}
	if len(st.Peers) != 1 || st.Peers[0].ID != "b-daemon" {
		t.Fatalf("peers = %+v", st.Peers)
	}
	if st.Peers[0].Lag != 0 {
		t.Fatalf("converged mesh reports lag %d, want 0", st.Peers[0].Lag)
	}
	if st.Stats.Rounds == 0 || st.Stats.DigestsSent == 0 {
		t.Fatalf("stats not accumulating: %+v", st.Stats)
	}
}

// TestBackgroundLoopConvergesOverMemMesh exercises Start/Close: real
// goroutines, ticker-driven, no manual pump — the read loop must spin on
// the mesh's timeout errors without burning away and still converge.
func TestBackgroundLoopConvergesOverMemMesh(t *testing.T) {
	mesh := NewMemMesh()
	var engines []*Peering
	var svcs []*crp.Service
	for i := 0; i < 2; i++ {
		id := string(rune('a'+i)) + "-bg"
		svc := crp.NewServiceWithStore(crp.StoreConfig{Shards: 8}, crp.WithWindow(10))
		p, err := New(Config{
			Self: id, Addr: id, Service: svc,
			Interval: 5 * time.Millisecond,
			Resolve:  mesh.Resolve, Registry: obs.NewRegistry(), Seed: uint64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Attach(mesh.Conn(id))
		engines = append(engines, p)
		svcs = append(svcs, svc)
	}
	for _, p := range engines {
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		defer p.Close()
	}
	if err := engines[0].AddPeer("b-bg", "b-bg"); err != nil {
		t.Fatal(err)
	}
	if err := engines[1].AddPeer("a-bg", "a-bg"); err != nil {
		t.Fatal(err)
	}
	if err := svcs[0].Observe("n1", time.Unix(1, 0), "r1"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := svcs[1].RatioMap("n1"); err == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("background loops never replicated n1")
}
