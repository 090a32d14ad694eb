package cdn

import (
	"errors"
	"testing"
	"time"

	"repro/internal/netsim"
)

func testTopology(t *testing.T) *netsim.Topology {
	t.Helper()
	p := netsim.DefaultParams()
	p.NumClients = 120
	p.NumCandidates = 40
	p.NumReplicas = 100
	topo, err := netsim.Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return topo
}

// splitTopology places every replica host in one region and half the
// clients in a second region on the far side of the world, so those clients
// have no replica within fallbackThresholdMs.
func splitTopology(t *testing.T, replicas int) *netsim.Topology {
	t.Helper()
	p := netsim.DefaultParams()
	p.NumClients = 60
	p.NumCandidates = 10
	p.NumReplicas = replicas
	p.Regions = []netsim.Region{
		{Name: "served", LatMin: 35, LatMax: 45, LonMin: -100, LonMax: -80,
			HostWeight: 0.5, ReplicaWeight: 1, CandidateWeight: 1, Metros: 4},
		{Name: "remote", LatMin: -40, LatMax: -30, LonMin: 140, LonMax: 150,
			HostWeight: 0.5, Metros: 2},
	}
	topo, err := netsim.Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return topo
}

func testCDN(t *testing.T, topo *netsim.Topology) *Network {
	t.Helper()
	n, err := New(Config{Topo: topo})
	if err != nil {
		t.Fatalf("cdn.New: %v", err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without topology should fail")
	}
	topo := testTopology(t)
	if _, err := New(Config{Topo: topo, GlobalNames: []string{"a.sim.", "a.sim."}}); err == nil {
		t.Error("New with duplicate names should fail")
	}
	p := netsim.DefaultParams()
	p.NumReplicas = 0
	p.NumClients, p.NumCandidates = 10, 5
	empty, err := netsim.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Topo: empty}); err == nil {
		t.Error("New over a topology with no replicas should fail")
	}
}

func TestNewDefaults(t *testing.T) {
	n := testCDN(t, testTopology(t))
	if got := n.TTL(); got != AnswerTTL {
		t.Errorf("TTL = %v, want %v", got, AnswerTTL)
	}
	names := n.Names()
	if len(names) != len(servedNames) {
		t.Fatalf("Names = %v, want defaults", names)
	}
}

func TestRedirectBasics(t *testing.T) {
	topo := testTopology(t)
	n := testCDN(t, topo)
	name := n.Names()[0]
	client := topo.Clients()[0]

	got, err := n.Redirect(name, client, 0)
	if err != nil {
		t.Fatalf("Redirect: %v", err)
	}
	if len(got) != answerCount {
		t.Fatalf("Redirect returned %d replicas, want %d", len(got), answerCount)
	}
	for _, id := range got {
		h := topo.Host(id)
		if h == nil || h.Kind != netsim.KindReplica {
			t.Errorf("redirected to non-replica host %v", id)
		}
		if !n.Serves(name, id) {
			t.Errorf("redirected to replica %v that does not serve %q", id, name)
		}
	}
	if got[0] == got[1] {
		t.Error("Redirect returned duplicate replicas")
	}
}

func TestRedirectErrors(t *testing.T) {
	topo := testTopology(t)
	n := testCDN(t, topo)
	if _, err := n.Redirect("nonexistent.sim.", topo.Clients()[0], 0); !errors.Is(err, ErrUnknownName) {
		t.Errorf("Redirect of unknown name: err = %v, want ErrUnknownName", err)
	}
	if _, err := n.Redirect(n.Names()[0], netsim.HostID(-5), 0); err == nil {
		t.Error("Redirect for unknown LDNS should fail")
	}
}

func TestRedirectDeterministicWithinEpoch(t *testing.T) {
	topo := testTopology(t)
	n := testCDN(t, topo)
	name := n.Names()[0]
	client := topo.Clients()[3]
	a, err := n.Redirect(name, client, 65*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Redirect(name, client, 65*time.Second+5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// 65s and 70s are in the same 30s mapping epoch [60s, 90s).
	if a[0] != b[0] || a[1] != b[1] {
		t.Errorf("answers differ within one mapping epoch: %v vs %v", a, b)
	}
}

func TestRedirectChurnsOverTime(t *testing.T) {
	topo := testTopology(t)
	n := testCDN(t, topo)
	name := n.Names()[0]
	client := topo.Clients()[5]
	seen := map[netsim.HostID]bool{}
	for i := 0; i < 40; i++ {
		at := time.Duration(i) * 10 * time.Minute
		got, err := n.Redirect(name, client, at)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range got {
			seen[id] = true
		}
	}
	// The paper observes hosts see a small (<20) but >1 set of frequent
	// replicas over time.
	if len(seen) < 2 {
		t.Errorf("client saw only %d distinct replicas over 40 probes; mapping never churns", len(seen))
	}
	if len(seen) > 25 {
		t.Errorf("client saw %d distinct replicas; redirection set should stay small", len(seen))
	}
}

func TestRedirectPrefersNearbyReplicas(t *testing.T) {
	topo := testTopology(t)
	n := testCDN(t, topo)
	name := n.Names()[0]
	// Average over many clients: the chosen replica should be much closer
	// than the median replica.
	better := 0
	clients := topo.Clients()[:50]
	for _, c := range clients {
		got, err := n.Redirect(name, c, 0)
		if err != nil {
			t.Fatal(err)
		}
		chosen := topo.BaseRTTMs(c, got[0])
		// Compare to a "random" replica (deterministic pick).
		other := n.Replicas()[int(c)%len(n.Replicas())]
		if chosen <= topo.BaseRTTMs(c, other) {
			better++
		}
	}
	if frac := float64(better) / float64(len(clients)); frac < 0.8 {
		t.Errorf("chosen replica beat a random one only %.0f%% of the time", frac*100)
	}
}

func TestNearbyClientsSeeOverlappingReplicas(t *testing.T) {
	// The core CRP hypothesis must hold in the simulator: same-metro clients
	// share redirections; cross-region clients almost never do.
	topo := testTopology(t)
	n := testCDN(t, topo)
	name := n.Names()[0]

	redirectSet := func(c netsim.HostID) map[netsim.HostID]bool {
		set := map[netsim.HostID]bool{}
		for i := 0; i < 12; i++ {
			got, err := n.Redirect(name, c, time.Duration(i)*10*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range got {
				set[id] = true
			}
		}
		return set
	}
	overlap := func(a, b map[netsim.HostID]bool) int {
		n := 0
		for id := range a {
			if b[id] {
				n++
			}
		}
		return n
	}

	clients := topo.Clients()
	var sameMetroOverlap, crossRegionOverlap, sameMetroPairs, crossRegionPairs int
	sets := map[netsim.HostID]map[netsim.HostID]bool{}
	for _, c := range clients {
		sets[c] = nil
	}
	get := func(c netsim.HostID) map[netsim.HostID]bool {
		if sets[c] == nil {
			sets[c] = redirectSet(c)
		}
		return sets[c]
	}
	for i := 0; i < len(clients) && sameMetroPairs+crossRegionPairs < 400; i++ {
		for j := i + 1; j < len(clients); j++ {
			a, b := topo.Host(clients[i]), topo.Host(clients[j])
			switch {
			case a.Metro == b.Metro:
				sameMetroPairs++
				sameMetroOverlap += overlap(get(a.ID), get(b.ID))
			case a.Region != b.Region && crossRegionPairs < 200:
				crossRegionPairs++
				crossRegionOverlap += overlap(get(a.ID), get(b.ID))
			}
		}
	}
	if sameMetroPairs == 0 || crossRegionPairs == 0 {
		t.Fatal("degenerate test topology")
	}
	sameAvg := float64(sameMetroOverlap) / float64(sameMetroPairs)
	crossAvg := float64(crossRegionOverlap) / float64(crossRegionPairs)
	if sameAvg <= crossAvg*2 {
		t.Errorf("same-metro replica overlap (%.2f) not clearly above cross-region overlap (%.2f)",
			sameAvg, crossAvg)
	}
}

func TestFallbackForUnservedRegions(t *testing.T) {
	topo := splitTopology(t, 20)
	n := testCDN(t, topo)
	// A client whose nearest replica is a tenth past the threshold stays
	// past it under the mapping system's ±7% measurement noise, so every
	// answer it gets is a fallback.
	remote := netsim.HostID(-1)
	for _, c := range topo.Clients() {
		nearest := -1.0
		for _, r := range n.Replicas() {
			if d := topo.BaseRTTMs(c, r); nearest < 0 || d < nearest {
				nearest = d
			}
		}
		if nearest > fallbackThresholdMs/0.9 {
			remote = c
			break
		}
	}
	if remote < 0 {
		t.Fatal("no client far enough from every replica: the test topology is degenerate")
	}
	local := 0
	for _, r := range n.Replicas() {
		if !n.IsFallback(r) {
			local++
		}
	}
	if local == 0 {
		t.Fatal("every replica is a fallback server: the check below would be vacuous")
	}
	before := metrics.fallbacks.Value()
	got, err := n.Redirect(n.Names()[0], remote, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range got {
		if !n.IsFallback(id) {
			t.Errorf("expected fallback replicas, got %v", id)
		}
	}
	if metrics.fallbacks.Value() == before {
		t.Error("the answer did not take the fallback path")
	}
}

func TestServesSubsetsPerName(t *testing.T) {
	topo := testTopology(t)
	n := testCDN(t, topo)
	names := n.Names()
	if len(names) < 2 {
		t.Skip("need two names")
	}
	onlyFirst := 0
	for _, r := range n.Replicas() {
		if n.Serves(names[0], r) && !n.Serves(names[1], r) {
			onlyFirst++
		}
	}
	if onlyFirst == 0 {
		t.Error("every replica serves both names; per-name server sets should differ")
	}
	if n.Serves("bogus.sim.", n.Replicas()[0]) {
		t.Error("Serves of unknown name should be false")
	}
}

func TestRedirectConcurrentSafe(t *testing.T) {
	topo := testTopology(t)
	n := testCDN(t, topo)
	name := n.Names()[0]
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				c := topo.Clients()[(w*50+i)%len(topo.Clients())]
				if _, err := n.Redirect(name, c, time.Duration(i)*time.Minute); err != nil {
					t.Errorf("Redirect: %v", err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

func TestGlobalNamesAnswerFallbackOnly(t *testing.T) {
	topo := testTopology(t)
	n, err := New(Config{Topo: topo, GlobalNames: []string{"global.cdn.sim."}})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Names()) != len(servedNames)+1 {
		t.Fatalf("Names = %v", n.Names())
	}
	for i, client := range topo.Clients()[:20] {
		got, err := n.Redirect("global.cdn.sim.", client, time.Duration(i)*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range got {
			if !n.IsFallback(id) {
				t.Fatalf("global name answered non-fallback replica %v", id)
			}
		}
	}
}

func TestGlobalNameDuplicateRejected(t *testing.T) {
	topo := testTopology(t)
	if _, err := New(Config{Topo: topo, GlobalNames: []string{servedNames[0]}}); err == nil {
		t.Error("global name duplicating a regular name should fail")
	}
}

func TestRedirectTinyNeighborSet(t *testing.T) {
	// Regression: with a tiny candidate set, the load-spreading walk could
	// step past the end of the ranking when the tail index was already
	// used; it must clamp to the best unused replica instead. Two replica
	// hosts make every localized answer rank exactly two.
	topo := splitTopology(t, 2)
	n := testCDN(t, topo)
	if len(n.Replicas()) != 2 {
		t.Fatalf("topology has %d replicas, want 2", len(n.Replicas()))
	}
	name := n.Names()[0]
	before := metrics.redirects.Value()
	for _, client := range topo.Clients()[:20] {
		for i := 0; i < 200; i++ {
			got, err := n.Redirect(name, client, time.Duration(i)*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 2 && got[0] == got[1] {
				t.Fatalf("duplicate replicas in answer: %v", got)
			}
		}
	}
	if metrics.redirects.Value() == before {
		t.Fatal("no answer was localized: the load-spreading walk never ran")
	}
}
