package crp

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// populateService fills a service with three metro-like groups of nodes.
func populateService(t *testing.T) *Service {
	t.Helper()
	s := NewService(WithWindow(10))
	at := t0
	groups := map[string][]ReplicaID{
		"west": {"rw1", "rw2"},
		"east": {"re1", "re2"},
		"asia": {"ra1"},
	}
	for g, replicas := range groups {
		for n := 0; n < 3; n++ {
			node := NodeID(fmt.Sprintf("%s-%d", g, n))
			for i := 0; i < 10; i++ {
				// Rotate through the group's replicas with a node-specific bias.
				r := replicas[(i+n)%len(replicas)]
				if err := s.Observe(node, at.Add(time.Duration(i)*time.Minute), r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return s
}

func TestServiceObserveValidation(t *testing.T) {
	s := NewService()
	if err := s.Observe("", t0, "r"); err == nil {
		t.Error("Observe with empty node should fail")
	}

	// A probe with no replicas is ignored: no node, no published mutation,
	// no accepted-probe count.
	var mutated []NodeID
	s.SetMutationHook(func(n NodeID) { mutated = append(mutated, n) })
	digests := s.ShardDigests()
	if err := s.Observe("ghost", t0); err != nil {
		t.Fatalf("Observe with no replicas: %v", err)
	}
	if got := s.Nodes(); len(got) != 0 {
		t.Errorf("Nodes() = %v after an empty probe, want none", got)
	}
	if _, ok := s.ExportDelta("ghost"); ok {
		t.Error("an empty probe left replication metadata behind")
	}
	if len(mutated) != 0 {
		t.Errorf("mutation hook fired for %v", mutated)
	}
	if !slices.Equal(s.ShardDigests(), digests) {
		t.Error("shard digests changed")
	}
	if got := s.observeSeq(); got != 0 {
		t.Errorf("observeSeq = %d, want 0", got)
	}
}

func TestServiceRatioMapAndSimilarity(t *testing.T) {
	s := populateService(t)
	m, err := s.RatioMap("west-0")
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m.Sum(), 1, 1e-9) {
		t.Errorf("ratio sum = %v", m.Sum())
	}
	same, err := s.Similarity("west-0", "west-1")
	if err != nil {
		t.Fatal(err)
	}
	cross, err := s.Similarity("west-0", "east-0")
	if err != nil {
		t.Fatal(err)
	}
	if same <= cross {
		t.Errorf("same-group similarity %v not above cross-group %v", same, cross)
	}
	if _, err := s.Similarity("west-0", "nope"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Similarity with unknown node: %v", err)
	}
}

func TestServiceClosestTo(t *testing.T) {
	s := populateService(t)
	best, ok, err := s.ClosestTo("west-0", []NodeID{"west-1", "east-0", "asia-0"})
	if err != nil {
		t.Fatal(err)
	}
	if !ok || best.Node != "west-1" {
		t.Errorf("ClosestTo = %+v, ok=%v; want west-1", best, ok)
	}
	// Client excluded from its own candidate list.
	best, _, err = s.ClosestTo("west-0", []NodeID{"west-0", "west-2"})
	if err != nil {
		t.Fatal(err)
	}
	if best.Node == "west-0" {
		t.Error("ClosestTo returned the client itself")
	}
	if _, _, err := s.ClosestTo("ghost", []NodeID{"west-1"}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown client: %v", err)
	}
	if _, _, err := s.ClosestTo("west-0", []NodeID{"ghost"}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown candidate: %v", err)
	}
}

func TestServiceClosestToNoSignal(t *testing.T) {
	s := populateService(t)
	// asia nodes share no replicas with west nodes.
	_, ok, err := s.ClosestTo("asia-0", []NodeID{"west-0", "west-1"})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("ClosestTo should report no signal across disjoint replica sets")
	}
}

func TestServiceTopK(t *testing.T) {
	s := populateService(t)
	got, err := s.TopK("west-0", []NodeID{"west-1", "west-2", "east-0"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("TopK returned %d", len(got))
	}
	if got[0].Node != "west-1" && got[0].Node != "west-2" {
		t.Errorf("TopK[0] = %v, want a west node", got[0])
	}
}

func TestServiceClusterAllAndSameCluster(t *testing.T) {
	s := populateService(t)
	clusters, err := s.ClusterAll(ClusterConfig{Threshold: DefaultThreshold})
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(clusters, len(s.Nodes()))
	if sum.NumClusters < 3 {
		t.Errorf("found %d multi-node clusters, want ≥ 3 (one per group)", sum.NumClusters)
	}

	peers, err := s.SameCluster("west-0", ClusterConfig{Threshold: DefaultThreshold})
	if err != nil {
		t.Fatal(err)
	}
	want := map[NodeID]bool{"west-1": true, "west-2": true}
	if len(peers) != 2 || !want[peers[0]] || !want[peers[1]] {
		t.Errorf("SameCluster(west-0) = %v, want the other west nodes", peers)
	}
	if _, err := s.SameCluster("ghost", ClusterConfig{Threshold: 0.1}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("SameCluster unknown node: %v", err)
	}
}

func TestServiceDistinctClusters(t *testing.T) {
	s := populateService(t)
	got, err := s.DistinctClusters(3, ClusterConfig{Threshold: DefaultThreshold})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("DistinctClusters = %v", got)
	}
	// The three picks must come from three different groups.
	groups := map[byte]bool{}
	for _, id := range got {
		groups[id[0]] = true
	}
	if len(groups) != 3 {
		t.Errorf("DistinctClusters picks %v not from distinct groups", got)
	}
	if got, err := s.DistinctClusters(0, ClusterConfig{}); err != nil || got != nil {
		t.Errorf("DistinctClusters(0) = %v, %v", got, err)
	}
}

func TestServiceNodes(t *testing.T) {
	s := populateService(t)
	nodes := s.Nodes()
	if n := len(nodes); n != 9 {
		t.Fatalf("Nodes = %d, want 9", n)
	}
	if !slices.IsSorted(nodes) {
		t.Errorf("Nodes not sorted: %v", nodes)
	}
	if _, err := s.RatioMap("never-seen"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("RatioMap of an unknown node: %v", err)
	}
}

func TestServiceConcurrentUse(t *testing.T) {
	s := NewService(WithWindow(20))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := NodeID(fmt.Sprintf("node-%d", w%4))
			for i := 0; i < 100; i++ {
				_ = s.Observe(node, t0.Add(time.Duration(i)*time.Second),
					ReplicaID(fmt.Sprintf("r%d", i%3)))
				_, _ = s.RatioMap(node)
				_, _ = s.ClusterAll(ClusterConfig{Threshold: 0.1})
			}
		}(w)
	}
	wg.Wait()
	if n := len(s.Nodes()); n != 4 {
		t.Errorf("Nodes = %d, want 4", n)
	}
}

// TestServiceCandidatesNilVersusEmpty pins the candidate-slice semantics of
// ClosestTo and TopK: nil means "rank against every known node", while an
// empty non-nil slice means "no candidates at all". Callers building
// candidate lists dynamically must not conflate the two.
func TestServiceCandidatesNilVersusEmpty(t *testing.T) {
	s := populateService(t)

	// nil: the whole service is the candidate set (minus the client).
	best, ok, err := s.ClosestTo("west-0", nil)
	if err != nil || !ok {
		t.Fatalf("ClosestTo(nil): ok=%v err=%v", ok, err)
	}
	if best.Node == "west-0" {
		t.Error("ClosestTo(nil) returned the client itself")
	}
	ranked, err := s.TopK("west-0", nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(s.Nodes()) - 1; len(ranked) != want {
		t.Errorf("TopK(nil) ranked %d candidates, want all %d known nodes minus the client", len(ranked), want)
	}

	// Empty non-nil: no candidates, no signal — and no error.
	best, ok, err = s.ClosestTo("west-0", []NodeID{})
	if err != nil {
		t.Fatal(err)
	}
	if ok || best != (Scored{}) {
		t.Errorf("ClosestTo(empty) = %+v ok=%v, want zero Scored and ok=false", best, ok)
	}
	ranked, err = s.TopK("west-0", []NodeID{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 0 {
		t.Errorf("TopK(empty) ranked %d candidates, want 0", len(ranked))
	}
}

// TestServiceCandidateListEdgeCases pins the remaining candidate-list
// behaviors the query path must preserve: duplicate IDs rank once, the
// client is excluded even when listed explicitly, and an unknown candidate
// is an error.
func TestServiceCandidateListEdgeCases(t *testing.T) {
	s := populateService(t)

	ranked, err := s.TopK("west-0", []NodeID{"east-0", "east-0", "west-0", "west-1"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 2 {
		t.Fatalf("TopK with duplicates and the client listed ranked %d, want 2: %+v", len(ranked), ranked)
	}
	seen := map[NodeID]bool{}
	for _, sc := range ranked {
		if sc.Node == "west-0" {
			t.Error("client ranked as its own candidate")
		}
		if seen[sc.Node] {
			t.Errorf("candidate %s ranked twice", sc.Node)
		}
		seen[sc.Node] = true
	}

	if _, err := s.TopK("west-0", []NodeID{"nope"}, 5); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("TopK with unknown candidate: err=%v, want ErrUnknownNode", err)
	}
	if _, _, err := s.ClosestTo("west-0", []NodeID{"nope"}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("ClosestTo with unknown candidate: err=%v, want ErrUnknownNode", err)
	}

	// With aggregation on, every lookup goes through one resolver, and the
	// hit/fallback accounting must stay where it was: a query's subject
	// counts (a hit when its aggregate answered, a fallback when a keyed
	// client had to be answered from its own tracker), SameCluster counts
	// only the aggregate path, and candidates never count.
	if err := s.EnableAggregation(AggregatorConfig{KeyOf: groupByFirstByte}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []NodeID{"cW-0", "cW-1"} {
		if err := s.Observe(c, t0, "rw1"); err != nil { // absorbed: no tracker
			t.Fatal(err)
		}
	}
	// A keyed client with a tracker of its own, as a demotion leaves it.
	s.store.observe("cW-9", func(tr *Tracker) { tr.Observe(t0, "rw1") })
	cfg := ClusterConfig{Threshold: DefaultThreshold}
	for _, row := range []struct {
		name            string
		query           func() error
		hits, fallbacks uint64
	}{
		{"aggregated client", func() error { _, err := s.TopK("cW-0", nil, 3); return err }, 1, 0},
		{"keyed client with a tracker", func() error { _, err := s.TopK("cW-9", nil, 3); return err }, 0, 1},
		{"unkeyed client", func() error { _, err := s.TopK("west-0", nil, 3); return err }, 0, 0},
		{"candidate list", func() error {
			_, err := s.TopK("west-0", []NodeID{"cW-0", "cW-1", "cW-9", "east-0"}, 3)
			return err
		}, 0, 0},
		{"pair", func() error { _, err := s.Similarity("cW-0", "cW-9"); return err }, 1, 1},
		{"SameCluster of an aggregated client", func() error { _, err := s.SameCluster("cW-0", cfg); return err }, 1, 0},
		{"SameCluster of a tracked keyed client", func() error { _, err := s.SameCluster("cW-9", cfg); return err }, 0, 0},
		{"SameCluster of an unknown node", func() error {
			if _, err := s.SameCluster("cZ-0", cfg); !errors.Is(err, ErrUnknownNode) {
				return fmt.Errorf("err=%v, want ErrUnknownNode", err)
			}
			return nil
		}, 0, 0},
	} {
		hits, fallbacks := aggMetrics.hits.Value(), aggMetrics.fallbacks.Value()
		if err := row.query(); err != nil {
			t.Errorf("%s: %v", row.name, err)
		}
		if h, f := aggMetrics.hits.Value()-hits, aggMetrics.fallbacks.Value()-fallbacks; h != row.hits || f != row.fallbacks {
			t.Errorf("%s: crp.aggregate.hits +%d fallbacks +%d, want +%d +%d", row.name, h, f, row.hits, row.fallbacks)
		}
	}
}

// TestServiceQueriesSeeNewObservations guards the snapshot cache: a query
// after a new observation must reflect the new state, not a stale compiled
// snapshot.
func TestServiceQueriesSeeNewObservations(t *testing.T) {
	s := NewService()
	at := t0
	mustObserve := func(n NodeID, rs ...ReplicaID) {
		t.Helper()
		if err := s.Observe(n, at, rs...); err != nil {
			t.Fatal(err)
		}
	}
	mustObserve("client", "r1")
	mustObserve("a", "r1")
	mustObserve("b", "r9")

	best, ok, err := s.ClosestTo("client", nil)
	if err != nil || !ok || best.Node != "a" {
		t.Fatalf("ClosestTo = %+v ok=%v err=%v, want a", best, ok, err)
	}

	// b flips to the client's replica set with heavier overlap; the next
	// query must see it despite the previously cached snapshot.
	for i := 0; i < 8; i++ {
		mustObserve("b", "r1")
	}
	ranked, err := s.TopK("client", nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 2 || ranked[0].Similarity < ranked[1].Similarity {
		t.Fatalf("TopK after update = %+v", ranked)
	}
	sim, err := s.Similarity("client", "b")
	if err != nil {
		t.Fatal(err)
	}
	if sim == 0 {
		t.Error("Similarity(client, b) = 0 after b observed r1; stale snapshot?")
	}
}
