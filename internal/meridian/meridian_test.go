package meridian

import (
	"math"
	"sort"
	"testing"

	"repro/internal/netsim"
)

func testTopology(t *testing.T) *netsim.Topology {
	t.Helper()
	p := netsim.DefaultParams()
	p.NumClients = 100
	p.NumCandidates = 60
	p.NumReplicas = 30
	topo, err := netsim.Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return topo
}

func healthyOverlay(t *testing.T, topo *netsim.Topology) *Overlay {
	t.Helper()
	o, err := Build(Config{Topo: topo, Members: topo.Candidates(), Seed: 1})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return o
}

func TestBuildValidation(t *testing.T) {
	topo := testTopology(t)
	tests := []struct {
		name string
		cfg  Config
	}{
		{"nil topo", Config{Members: topo.Candidates()}},
		{"no members", Config{Topo: topo}},
		{"unknown member", Config{Topo: topo, Members: []netsim.HostID{-3}}},
		{"duplicate member", Config{Topo: topo, Members: []netsim.HostID{1, 1}}},
		{"bad fraction", Config{Topo: topo, Members: topo.Candidates(), SelfishFraction: 1.5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Build(tt.cfg); err == nil {
				t.Error("Build should fail")
			}
		})
	}
}

func TestRingIndex(t *testing.T) {
	topo := testTopology(t)
	o := healthyOverlay(t, topo)
	tests := []struct {
		rtt  float64
		want int
	}{
		{0.5, 1}, {1, 1}, {1.5, 1}, {2, 1}, {2.1, 2}, {4, 2}, {5, 3},
		{250, 8}, {400, 9}, {1e6, numRings},
	}
	for _, tt := range tests {
		if got := o.ringIndex(tt.rtt); got != tt.want {
			t.Errorf("ringIndex(%v) = %d, want %d", tt.rtt, got, tt.want)
		}
	}
}

func TestBuildRingsNonOverlappingAndBounded(t *testing.T) {
	topo := testTopology(t)
	o := healthyOverlay(t, topo)
	for _, id := range o.Members() {
		n := o.nodes[id]
		seen := map[netsim.HostID]bool{}
		for ri, ring := range n.rings {
			if len(ring) > ringK {
				t.Errorf("node %d ring %d has %d members, cap %d", id, ri, len(ring), ringK)
			}
			for _, m := range ring {
				if m == id {
					t.Errorf("node %d contains itself in ring %d", id, ri)
				}
				if seen[m] {
					t.Errorf("node %d has peer %d in two rings", id, m)
				}
				seen[m] = true
			}
		}
	}
}

func TestGossipConnectsOverlay(t *testing.T) {
	topo := testTopology(t)
	o := healthyOverlay(t, topo)
	// Every healthy node should know a reasonable number of peers.
	for _, id := range o.Members() {
		n := o.nodes[id]
		if len(n.known) < 5 {
			t.Errorf("node %d knows only %d peers after gossip", id, len(n.known))
		}
	}
}

func TestClosestToFindsGoodNodes(t *testing.T) {
	topo := testTopology(t)
	o := healthyOverlay(t, topo)
	members := o.Members()
	entry := members[0]

	// For each target, compare Meridian's pick to the true closest member.
	// With a healthy overlay the recommendation should usually be within 2x
	// (in added latency terms) of optimal.
	goodCount, n := 0, 0
	for i, target := range topo.Clients() {
		if i >= 60 {
			break
		}
		rec, stats, err := o.ClosestTo(entry, target, 0)
		if err != nil {
			t.Fatalf("ClosestTo: %v", err)
		}
		if stats.Probes == 0 {
			t.Error("query issued no probes")
		}
		recRTT := topo.RTTMs(rec, target, 0)
		optRTT := math.Inf(1)
		for _, m := range members {
			if r := topo.RTTMs(m, target, 0); r < optRTT {
				optRTT = r
			}
		}
		if recRTT <= 2*optRTT+10 {
			goodCount++
		}
		n++
	}
	if frac := float64(goodCount) / float64(n); frac < 0.7 {
		t.Errorf("only %.0f%% of recommendations within 2x of optimal", frac*100)
	}
}

func TestClosestToBeatsRandomSelection(t *testing.T) {
	topo := testTopology(t)
	o := healthyOverlay(t, topo)
	members := o.Members()
	entry := members[1]

	var recSum, randSum float64
	for i, target := range topo.Clients()[:50] {
		rec, _, err := o.ClosestTo(entry, target, 0)
		if err != nil {
			t.Fatal(err)
		}
		recSum += topo.RTTMs(rec, target, 0)
		randSum += topo.RTTMs(members[(i*13)%len(members)], target, 0)
	}
	if recSum >= randSum {
		t.Errorf("meridian (avg %.1f) no better than random (avg %.1f)",
			recSum/50, randSum/50)
	}
}

func TestClosestToErrors(t *testing.T) {
	topo := testTopology(t)
	o := healthyOverlay(t, topo)
	if _, _, err := o.ClosestTo(netsim.HostID(-1), topo.Clients()[0], 0); err == nil {
		t.Error("non-member entry should fail")
	}
	if _, _, err := o.ClosestTo(o.Members()[0], netsim.HostID(1<<30), 0); err == nil {
		t.Error("unknown target should fail")
	}
}

func TestSelfishNodesAnswerThemselves(t *testing.T) {
	topo := testTopology(t)
	o, err := Build(Config{
		Topo: topo, Members: topo.Candidates(), Seed: 1,
		SelfishFraction: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var selfish netsim.HostID = -1
	for _, id := range o.Members() {
		if h, _ := o.Health(id); h.Selfish {
			selfish = id
			break
		}
	}
	if selfish < 0 {
		t.Fatal("no selfish node assigned")
	}
	for _, target := range topo.Clients()[:5] {
		rec, _, err := o.ClosestTo(selfish, target, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rec != selfish {
			t.Errorf("selfish entry recommended %d, want itself (%d)", rec, selfish)
		}
	}
}

func TestDeadNodesKnowNobody(t *testing.T) {
	topo := testTopology(t)
	o, err := Build(Config{
		Topo: topo, Members: topo.Candidates(), Seed: 1,
		DeadFraction: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead netsim.HostID = -1
	for _, id := range o.Members() {
		if h, _ := o.Health(id); h.Dead {
			dead = id
			break
		}
	}
	if dead < 0 {
		t.Fatal("no dead node assigned")
	}
	rec, stats, err := o.ClosestTo(dead, topo.Clients()[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec != dead || stats.Probes != 0 {
		t.Errorf("dead entry recommended %d with %d probes; want itself, 0 probes",
			rec, stats.Probes)
	}
}

func TestPartitionedPairOnlyKnowEachOther(t *testing.T) {
	topo := testTopology(t)
	o, err := Build(Config{
		Topo: topo, Members: topo.Candidates(), Seed: 1,
		PartitionPairs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var part netsim.HostID = -1
	for _, id := range o.Members() {
		if h, _ := o.Health(id); h.Partitioned {
			part = id
			break
		}
	}
	if part < 0 {
		t.Fatal("no partitioned node assigned")
	}
	n := o.nodes[part]
	if len(n.known) != 1 {
		t.Fatalf("partitioned node knows %d peers, want 1", len(n.known))
	}
	rec, _, err := o.ClosestTo(part, topo.Clients()[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec != part && !n.known[rec] {
		t.Errorf("partitioned entry recommended %d, outside its site", rec)
	}
}

func TestBuildDeterministic(t *testing.T) {
	topo := testTopology(t)
	a := healthyOverlay(t, topo)
	b := healthyOverlay(t, topo)
	for _, id := range a.Members() {
		na, nb := a.nodes[id], b.nodes[id]
		for ri := range na.rings {
			if !equalIDs(na.rings[ri], nb.rings[ri]) {
				t.Fatalf("node %d ring %d differs across identical builds", id, ri)
			}
		}
	}
	// And queries agree.
	for _, target := range topo.Clients()[:10] {
		ra, _, _ := a.ClosestTo(a.Members()[0], target, 0)
		rb, _, _ := b.ClosestTo(b.Members()[0], target, 0)
		if ra != rb {
			t.Fatalf("query results differ: %d vs %d", ra, rb)
		}
	}
}

func TestHealthUnknownMember(t *testing.T) {
	topo := testTopology(t)
	o := healthyOverlay(t, topo)
	if _, ok := o.Health(netsim.HostID(-1)); ok {
		t.Error("Health of non-member reported ok")
	}
}

func TestMembersSortedCopy(t *testing.T) {
	topo := testTopology(t)
	o := healthyOverlay(t, topo)
	m := o.Members()
	if !sort.SliceIsSorted(m, func(i, j int) bool { return m[i] < m[j] }) {
		t.Error("Members not sorted")
	}
	m[0] = -99
	if o.Members()[0] == -99 {
		t.Error("Members exposes internal slice")
	}
}

func equalIDs(a, b []netsim.HostID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
