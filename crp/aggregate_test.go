package crp

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// groupByFirstByte keys every node ID that starts with "c" to a group named
// after its first two runes ("cA-77" → "cA"), and declines everything else —
// a tiny stand-in for prefix keying that keeps tests independent of netip.
func groupByFirstByte(n NodeID) (string, bool) {
	if len(n) >= 2 && n[0] == 'c' {
		return string(n[:2]), true
	}
	return "", false
}

func TestEnableAggregationValidation(t *testing.T) {
	svc := NewService()
	if err := svc.EnableAggregation(AggregatorConfig{}); err == nil {
		t.Fatal("nil KeyOf accepted")
	}
	if err := svc.EnableAggregation(AggregatorConfig{KeyOf: groupByFirstByte}); err != nil {
		t.Fatal(err)
	}
	if err := svc.EnableAggregation(AggregatorConfig{KeyOf: groupByFirstByte}); err == nil {
		t.Fatal("double enable accepted")
	}
}

// Keyed clients are absorbed into aggregates — no per-client tracker, no
// store entry — while unkeyed nodes keep the ordinary path, and both resolve
// through the same query surface.
func TestAggregationAbsorbsKeyedClients(t *testing.T) {
	base := time.Unix(5_000, 0)
	svc := NewService()
	if err := svc.EnableAggregation(AggregatorConfig{KeyOf: groupByFirstByte}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		if err := svc.Observe(NodeID(fmt.Sprintf("cA-%d", i)), base, "R1"); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Observe("server-1", base, "R1"); err != nil {
		t.Fatal(err)
	}

	if got := svc.Nodes(); len(got) != 1 || got[0] != "server-1" {
		t.Fatalf("store nodes = %v; aggregated clients must not reach the store", got)
	}
	info := svc.AggregateInfo()
	if !info.Enabled || info.Groups != 1 {
		t.Fatalf("AggregateInfo = %+v, want 1 group", info)
	}
	if info.StateBytes <= 0 {
		t.Fatalf("state bytes proxy = %d, want > 0", info.StateBytes)
	}

	// Probes with no replicas are ignored before they reach the plane: no
	// group for a fresh prefix, no state charged, no accepted-probe count.
	seq := svc.observeSeq()
	for i := 0; i < 5; i++ {
		if err := svc.Observe("cB-1", base); err != nil {
			t.Fatal(err)
		}
	}
	if got := svc.AggregateInfo(); got != info {
		t.Fatalf("AggregateInfo after empty probes = %+v, want %+v", got, info)
	}
	if got := svc.observeSeq(); got != seq {
		t.Fatalf("observeSeq = %d after empty probes, want %d", got, seq)
	}
	if got := svc.Nodes(); len(got) != 1 {
		t.Fatalf("store nodes = %v after empty probes", got)
	}

	// A member resolves through its aggregate: its ratio map is the group's.
	m, err := svc.RatioMap("cA-3")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 || m["R1"] < 0.999 {
		t.Fatalf("aggregated ratio map = %v, want {R1: 1}", m)
	}
	if sim, err := svc.Similarity("cA-3", "server-1"); err != nil || sim < 0.999 {
		t.Fatalf("Similarity = %v, %v; want ~1", sim, err)
	}
	// Aggregated clients are valid explicit candidates too.
	if best, ok, err := svc.ClosestTo("server-1", []NodeID{"cA-7"}); err != nil || !ok || best.Node != "cA-7" {
		t.Fatalf("ClosestTo with aggregated candidate = %+v, %v, %v", best, ok, err)
	}
}

// A keyed client whose prefix has no aggregate yet (never observed) is
// unknown — the fallback chain ends at ErrUnknownNode, not a zero vector.
func TestAggregationAbsentClientIsUnknown(t *testing.T) {
	svc := NewService()
	if err := svc.EnableAggregation(AggregatorConfig{KeyOf: groupByFirstByte}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Observe("cA-1", time.Unix(5_000, 0), "R1"); err != nil {
		t.Fatal(err)
	}

	// cZ-9 is keyed but its group has never seen a probe.
	if _, err := svc.RatioMap("cZ-9"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("RatioMap(absent) err = %v, want ErrUnknownNode", err)
	}
	if _, _, err := svc.ClosestTo("cZ-9", nil); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("ClosestTo(absent) err = %v, want ErrUnknownNode", err)
	}
	if _, err := svc.TopK("cA-1", []NodeID{"cZ-9"}, 1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("TopK with absent candidate err = %v, want ErrUnknownNode", err)
	}
}

// Invalidating an aggregate while queries are in flight must be clean: every
// concurrent query either sees the old group or a fresh miss
// (ErrUnknownNode), never a torn vector. Run under -race via make check.
func TestAggregateInvalidatedMidQuery(t *testing.T) {
	base := time.Unix(5_000, 0)
	svc := NewService()
	if err := svc.EnableAggregation(AggregatorConfig{KeyOf: groupByFirstByte}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Observe("server-1", base, "R1"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Observe("server-2", base, "R2"); err != nil {
		t.Fatal(err)
	}
	seed := func() {
		for i := 0; i < 20; i++ {
			if err := svc.Observe("cA-1", base.Add(time.Duration(i)*time.Second), "R1"); err != nil {
				t.Error(err)
			}
		}
	}
	seed()

	key, ok := groupByFirstByte("cA-1")
	if !ok {
		t.Fatal("test key func declined cA-1")
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				best, ok, err := svc.ClosestTo("cA-1", []NodeID{"server-1", "server-2"})
				switch {
				case err == nil:
					if !ok || best.Node != "server-1" {
						t.Errorf("ClosestTo = %+v, %v; want server-1", best, ok)
						return
					}
				case errors.Is(err, ErrUnknownNode):
					// The invalidation window: a clean miss.
				default:
					t.Errorf("ClosestTo err = %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if !svc.InvalidateAggregate(key) && svc.AggregateInfo().Groups != 0 {
			t.Errorf("invalidate %d: group neither dropped nor absent", i)
		}
		seed() // recreate the group
	}
	close(stop)
	wg.Wait()

	if svc.InvalidateAggregate("no-such-key") {
		t.Fatal("invalidating an unknown key reported true")
	}
}

// A monitored client whose redirections disagree with its group is demoted:
// its divergence reservoir seeds a real per-client tracker, later probes land
// there, and queries prefer it over the aggregate.
func TestDivergentClientDemoted(t *testing.T) {
	base := time.Unix(5_000, 0)
	svc := NewService()
	err := svc.EnableAggregation(AggregatorConfig{
		KeyOf:         groupByFirstByte,
		MonitorEvery:  1, // monitor everyone: the test drives one divergent client
		MonitorProbes: 4,
		MinAgreement:  0.5,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The group's consensus: many siblings all redirected to R1.
	for i := 0; i < 10; i++ {
		for j := 0; j < 5; j++ {
			if err := svc.Observe(NodeID(fmt.Sprintf("cA-s%d", i)), base, "R1"); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The divergent client sees only R9. Its first probes are absorbed while
	// the reservoir fills; once full, the disagreement demotes it.
	div := NodeID("cA-div")
	for i := 0; i < 8; i++ {
		if err := svc.Observe(div, base.Add(time.Duration(i)*time.Second), "R9"); err != nil {
			t.Fatal(err)
		}
		if svc.AggregateInfo().Demoted > 0 {
			break
		}
	}
	info := svc.AggregateInfo()
	if info.Demoted != 1 {
		t.Fatalf("demoted = %d, want 1 (info %+v)", info.Demoted, info)
	}

	// The demoted client has a per-client tracker seeded from its reservoir:
	// its ratio map is pure R9, not the group's R1.
	m, err := svc.RatioMap(div)
	if err != nil {
		t.Fatal(err)
	}
	if m["R9"] < 0.999 {
		t.Fatalf("demoted client's ratio map = %v, want {R9: 1}", m)
	}

	// Later probes keep landing per-client.
	before := len(svc.Nodes())
	if err := svc.Observe(div, base.Add(time.Hour), "R9"); err != nil {
		t.Fatal(err)
	}
	if got := len(svc.Nodes()); got != before {
		t.Fatalf("post-demotion observe changed store membership %d -> %d", before, got)
	}
	// Siblings still resolve through the aggregate, dominated by R1. The
	// divergent client's pre-demotion probes were absorbed while its
	// reservoir filled, so a small R9 residue is expected — bounded by
	// MonitorProbes per divergent client and decayed away over time.
	sib, err := svc.RatioMap("cA-s0")
	if err != nil {
		t.Fatal(err)
	}
	if sib["R1"] < 0.9 || sib["R1"] <= sib["R9"] {
		t.Fatalf("sibling ratio map = %v, want R1-dominated", sib)
	}
}

// seedConsensus gives group cA its consensus: ten siblings, five probes
// each, all redirected to R1.
func seedConsensus(t *testing.T, svc *Service, base time.Time) {
	t.Helper()
	for i := 0; i < 10; i++ {
		for j := 0; j < 5; j++ {
			if err := svc.Observe(NodeID(fmt.Sprintf("cA-s%d", i)), base, "R1"); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// A keyed client whose live record arrived from a peer (it was demoted
// there) is per-client here too: its next local probe lands in the record,
// not in the group that resolve would no longer answer it from.
func TestReplicatedRecordTakesLocalProbes(t *testing.T) {
	base := time.Unix(5_000, 0)
	cfg := AggregatorConfig{KeyOf: groupByFirstByte, MonitorEvery: 1, MonitorProbes: 4}
	peer, local := NewService(), NewService()
	for _, svc := range []*Service{peer, local} {
		if err := svc.EnableAggregation(cfg); err != nil {
			t.Fatal(err)
		}
		seedConsensus(t, svc, base)
	}
	peer.SetOrigin("peer")
	div := NodeID("cA-div")
	for i := 0; peer.AggregateInfo().Demoted == 0; i++ {
		if i == 8 {
			t.Fatal("the peer never demoted the divergent client")
		}
		if err := peer.Observe(div, base.Add(time.Duration(i)*time.Second), "R9"); err != nil {
			t.Fatal(err)
		}
	}
	d, ok := peer.ExportDelta(div)
	if !ok {
		t.Fatal("the demoted client has no record on the peer")
	}
	if applied, err := local.ApplyDelta(d); err != nil || !applied {
		t.Fatalf("ApplyDelta = %v, %v", applied, err)
	}

	absorbed := aggMetrics.observes.Value()
	if err := local.Observe(div, base.Add(time.Hour), "R7"); err != nil {
		t.Fatal(err)
	}
	if got := aggMetrics.observes.Value() - absorbed; got != 0 {
		t.Fatalf("the group absorbed %d probes of a client with a live record", got)
	}
	tr, ok := local.store.get(div)
	if !ok || tr.Len() != len(d.Probes)+1 {
		t.Fatalf("record holds %v probes, want the replicated %d plus the local one", tr.Len(), len(d.Probes))
	}
	if m, err := local.RatioMap(div); err != nil || m["R7"] == 0 {
		t.Fatalf("RatioMap = %v, %v; want the local R7 probe in it", m, err)
	}
}

// Eight goroutines observe one divergent client across its demotion. The
// live-record check and the demotion's write share the aggregate shard lock,
// so no probe that lost the race re-creates the client's monitor or lands in
// its group, and every probe issued after the demotion is in the record
// (the window is unbounded). Run under -race via make check.
func TestDemotionUnderConcurrentObserves(t *testing.T) {
	base := time.Unix(5_000, 0)
	const workers, probes = 8, 40
	for trial := 0; trial < 20; trial++ {
		svc := NewService()
		if err := svc.EnableAggregation(AggregatorConfig{KeyOf: groupByFirstByte, MonitorEvery: 1, MonitorProbes: 4}); err != nil {
			t.Fatal(err)
		}
		seedConsensus(t, svc, base)
		monitors := svc.AggregateInfo().Monitors
		div := NodeID("cA-div")

		var wg sync.WaitGroup
		after := make([][]time.Time, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < probes; i++ {
					at := base.Add(time.Duration(w*probes+i) * time.Second)
					demoted := svc.AggregateInfo().Demoted > 0
					if err := svc.Observe(div, at, "R9"); err != nil {
						t.Error(err)
						return
					}
					if demoted {
						after[w] = append(after[w], at)
					}
				}
			}(w)
		}
		wg.Wait()

		info := svc.AggregateInfo()
		if info.Demoted != 1 {
			t.Fatalf("trial %d: demoted = %d, want 1", trial, info.Demoted)
		}
		if info.Monitors != monitors {
			t.Fatalf("trial %d: %d monitors, want %d: a probe re-created the demoted client's monitor", trial, info.Monitors, monitors)
		}
		tr, ok := svc.store.get(div)
		if !ok {
			t.Fatalf("trial %d: the demoted client has no record", trial)
		}
		recorded := make(map[int64]bool) // by instant: Probes returns At in UTC
		for _, p := range tr.Probes() {
			recorded[p.At.UnixNano()] = true
		}
		for _, ats := range after {
			for _, at := range ats {
				if !recorded[at.UnixNano()] {
					t.Fatalf("trial %d: probe at %v, issued after the demotion, is not in the record", trial, at)
				}
			}
		}
	}
}

// On a clean topology — every client in a prefix behaves identically — the
// aggregate answers the closest-node query exactly as per-client tracking
// would: quantized group maps preserve the argmax.
func TestAggregateMatchesPerClientOnCleanTopology(t *testing.T) {
	base := time.Unix(5_000, 0)
	perClient := NewService()
	aggregated := NewService()
	if err := aggregated.EnableAggregation(AggregatorConfig{KeyOf: groupByFirstByte}); err != nil {
		t.Fatal(err)
	}

	// Three candidate servers with distinct replica affinities, per-client
	// tracked on both services (symbolic names: KeyOf declines them).
	profiles := map[NodeID][]ReplicaID{
		"server-1": {"R1", "R1", "R1", "R2"},
		"server-2": {"R2", "R2", "R2", "R3"},
		"server-3": {"R3", "R3", "R3", "R1"},
	}
	candidates := []NodeID{"server-1", "server-2", "server-3"}
	// Three client prefixes, each behaving like one server's profile.
	behavior := map[string]NodeID{"cA": "server-1", "cB": "server-2", "cC": "server-3"}

	for _, svc := range []*Service{perClient, aggregated} {
		for node, reps := range profiles {
			for i, r := range reps {
				if err := svc.Observe(node, base.Add(time.Duration(i)*time.Second), r); err != nil {
					t.Fatal(err)
				}
			}
		}
		for pfx, like := range behavior {
			for c := 0; c < 6; c++ {
				client := NodeID(fmt.Sprintf("%s-%d", pfx, c))
				for i, r := range profiles[like] {
					at := base.Add(time.Duration(c*10+i) * time.Second)
					if err := svc.Observe(client, at, r); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}

	for pfx, want := range behavior {
		for c := 0; c < 6; c++ {
			client := NodeID(fmt.Sprintf("%s-%d", pfx, c))
			pBest, pOK, err := perClient.ClosestTo(client, candidates)
			if err != nil || !pOK {
				t.Fatalf("per-client ClosestTo(%s): %v, %v", client, pOK, err)
			}
			aBest, aOK, err := aggregated.ClosestTo(client, candidates)
			if err != nil || !aOK {
				t.Fatalf("aggregated ClosestTo(%s): %v, %v", client, aOK, err)
			}
			if pBest.Node != want {
				t.Fatalf("per-client baseline off: ClosestTo(%s) = %v, want %v", client, pBest.Node, want)
			}
			if aBest.Node != pBest.Node {
				t.Fatalf("aggregate disagrees with per-client: ClosestTo(%s) = %v, want %v",
					client, aBest.Node, pBest.Node)
			}
		}
	}

	// TopK order agrees too.
	for pfx := range behavior {
		client := NodeID(pfx + "-0")
		pTop, err := perClient.TopK(client, candidates, 3)
		if err != nil {
			t.Fatal(err)
		}
		aTop, err := aggregated.TopK(client, candidates, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(pTop) != len(aTop) {
			t.Fatalf("TopK lengths differ: %d vs %d", len(pTop), len(aTop))
		}
		for i := range pTop {
			if pTop[i].Node != aTop[i].Node {
				t.Fatalf("TopK(%s) rank %d: per-client %v, aggregate %v", client, i, pTop[i].Node, aTop[i].Node)
			}
		}
	}

	// SameCluster positions an aggregated client via its most similar
	// tracked node's cluster.
	cfg := ClusterConfig{Threshold: 0.1}
	members, err := aggregated.SameCluster("cA-0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range members {
		if m == "server-1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("SameCluster(cA-0) = %v, want server-1 among members", members)
	}
}

func TestPrefixKeyFunc(t *testing.T) {
	keyOf := PrefixKeyFunc(24)
	if key, ok := keyOf("10.1.2.77"); !ok || key != "10.1.2.0/24" {
		t.Fatalf("PrefixKeyFunc(10.1.2.77) = %q, %v", key, ok)
	}
	if key, ok := keyOf("10.1.3.4"); !ok || key != "10.1.3.0/24" {
		t.Fatalf("PrefixKeyFunc(10.1.3.4) = %q, %v", key, ok)
	}
	if _, ok := keyOf("server-1"); ok {
		t.Fatal("symbolic ID keyed")
	}
	if _, ok := keyOf("2001:db8::1"); ok {
		t.Fatal("IPv6 keyed by an IPv4 prefix func")
	}
	if key, ok := PrefixKeyFunc(16)("10.1.2.77"); !ok || key != "10.1.0.0/16" {
		t.Fatalf("PrefixKeyFunc/16 = %q, %v", key, ok)
	}
}

// TestInternKeepsOwnCopy pins that the process-lifetime intern table does
// not retain the string a name was cut from: a decoded replica list shares
// one backing, and an interned name must not pin it.
func TestInternKeepsOwnCopy(t *testing.T) {
	it := internTable{idx: make(map[ReplicaID]uint32)}
	backing := "r1.cdn.example" + strings.Repeat("x", 4096)
	r := ReplicaID(backing[:len("r1.cdn.example")])
	name := it.name(it.intern(r))
	if name != r {
		t.Fatalf("interned %q, got back %q", r, name)
	}
	if unsafe.StringData(string(name)) == unsafe.StringData(backing) {
		t.Fatal("interned name shares the caller's backing")
	}
}
