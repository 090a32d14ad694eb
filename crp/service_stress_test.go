package crp

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestServiceChurnStress interleaves every mutation and query the daemon
// and the peering layer expose — Observe, Forget, ForgetNamespace,
// ApplyDelta, GCTombstones, TopK, ClosestTo, Similarity, ClusterAll, Nodes,
// ShardDigests — across goroutines, under three store shapes. Run with
// -race (the repo's make check does) this is the concurrency gate for the
// sharded store: snapshot stitching, per-shard patching, structural
// rebuilds, the publish step's overtaken-observe retry and its digest and
// tombstone bookkeeping all race against ingestion here.
func TestServiceChurnStress(t *testing.T) {
	shapes := []struct {
		name string
		cfg  StoreConfig
	}{
		{"sharded", StoreConfig{}},
		{"fewShards", StoreConfig{Shards: 2}},
		{"single", StoreConfig{Shards: 1}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			s := NewServiceWithStore(shape.cfg, WithWindow(8))
			at := time.Unix(0, 0)
			// Seed enough nodes that queries always have candidates even
			// while Forget churns.
			for i := 0; i < 24; i++ {
				if err := s.Observe(NodeID(fmt.Sprintf("seed-%02d", i)), at,
					ReplicaID(fmt.Sprintf("r%d", i%5))); err != nil {
					t.Fatal(err)
				}
			}

			const workers, iters = 8, 120
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					node := NodeID(fmt.Sprintf("churn-%d", w%4))
					for i := 0; i < iters; i++ {
						switch i % 8 {
						case 0:
							if err := s.Observe(node, at.Add(time.Duration(i)*time.Second),
								ReplicaID(fmt.Sprintf("r%d", i%5)), ReplicaID(fmt.Sprintf("cdnB!r%d", i%3))); err != nil {
								errs <- err
								return
							}
						case 1:
							if _, err := s.TopK("seed-00", nil, 3); err != nil {
								errs <- err
								return
							}
						case 2:
							if _, _, err := s.ClosestTo("seed-01", nil); err != nil {
								errs <- err
								return
							}
						case 3:
							if _, err := s.Similarity("seed-02", "seed-03"); err != nil {
								errs <- err
								return
							}
						case 4:
							if _, err := s.ClusterAll(ClusterConfig{Threshold: DefaultThreshold}); err != nil {
								errs <- err
								return
							}
						case 5:
							if w%2 == 0 {
								s.Forget(node)
							} else {
								_, _ = s.Nodes(), s.ShardDigests()
								s.GCTombstones(time.Now())
							}
						case 6:
							if _, err := s.ForgetNamespace(node, "cdnB"); err != nil {
								errs <- err
								return
							}
						case 7:
							d := NodeDelta{NodeMeta: NodeMeta{Node: node, Origin: "peer", Version: uint64(i), Deleted: w%4 == 3}}
							if !d.Deleted {
								d.Probes = []Probe{{At: at, Replicas: []ReplicaID{"r0", "cdnB!r0"}}}
							}
							if _, err := s.ApplyDelta(d); err != nil {
								errs <- err
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			nodes := s.Nodes()
			if n := len(nodes); n < 24 {
				t.Errorf("lost seed nodes under churn: %d < 24", n)
			}
			// Whatever the interleaving, listing and replication agree on
			// which nodes are live.
			var live []NodeID
			for i := 0; i < s.ShardCount(); i++ {
				metas, err := s.ShardMetas(i)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range metas {
					if !m.Deleted {
						live = append(live, m.Node)
					}
				}
			}
			slices.Sort(live)
			if !slices.Equal(nodes, live) {
				t.Errorf("Nodes() = %v, live ShardMetas entries = %v", nodes, live)
			}
			checkShards(t, s, "after churn")
		})
	}
}

// TestServiceForgetInvalidatesSnapshot is the regression the sharded rewrite
// must not lose: Forget — even of a node that was just served from the
// compiled snapshot, and even of an unknown node — acts as a snapshot
// barrier, so the next all-nodes query reflects the removal.
func TestServiceForgetInvalidatesSnapshot(t *testing.T) {
	s := NewService()
	at := time.Unix(0, 0)
	for i := 0; i < 12; i++ {
		if err := s.Observe(NodeID(fmt.Sprintf("n-%02d", i)), at, "shared"); err != nil {
			t.Fatal(err)
		}
	}
	ranked, err := s.TopK("n-00", nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 11 {
		t.Fatalf("TopK ranked %d, want 11", len(ranked))
	}

	s.Forget("n-05")
	ranked, err = s.TopK("n-00", nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 10 {
		t.Fatalf("TopK after Forget ranked %d, want 10", len(ranked))
	}
	for _, sc := range ranked {
		if sc.Node == "n-05" {
			t.Error("forgotten node served from a stale snapshot")
		}
	}

	// Forgetting an unknown node still bumps the version (the pre-sharding
	// contract): the stitched snapshot is reassembled, not served stale.
	rebuilds := svcMetrics.snapshotRebuilds.Value()
	s.Forget("never-existed")
	if _, err := s.TopK("n-00", nil, 3); err != nil {
		t.Fatal(err)
	}
	if got := svcMetrics.snapshotRebuilds.Value() - rebuilds; got == 0 {
		t.Error("Forget of an unknown node did not invalidate the stitched snapshot")
	}
}

// TestServiceOrderingDeterminism pins the tie-break contract across the
// sharded rewrite: Nodes() is sorted, and TopK over the stitched snapshot
// ranks equal similarities by ascending NodeID — repeatably, and identically
// to the single-shard baseline whose candidate order is entirely different.
func TestServiceOrderingDeterminism(t *testing.T) {
	build := func(cfg StoreConfig) *Service {
		s := NewServiceWithStore(cfg)
		at := time.Unix(0, 0)
		// All candidates share one replica with identical ratios: every
		// similarity ties, so ordering is decided purely by the tie-break.
		for i := 0; i < 40; i++ {
			if err := s.Observe(NodeID(fmt.Sprintf("tie-%02d", i)), at, "r0"); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	sharded := build(StoreConfig{})
	single := build(StoreConfig{Shards: 1})

	nodes := sharded.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			t.Fatalf("Nodes() not sorted: %q before %q", nodes[i-1], nodes[i])
		}
	}

	first, err := sharded.TopK("tie-00", nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(first); i++ {
		if first[i-1].Similarity == first[i].Similarity && first[i-1].Node >= first[i].Node {
			t.Fatalf("tied similarities not ordered by NodeID: %+v", first)
		}
	}
	for trial := 0; trial < 5; trial++ {
		again, err := sharded.TopK("tie-00", nil, 10)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := single.TopK("tie-00", nil, 10)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("TopK not repeatable at %d: %+v vs %+v", i, again[i], first[i])
			}
			if ref[i] != first[i] {
				t.Fatalf("TopK diverges from single-shard baseline at %d: %+v vs %+v", i, ref[i], first[i])
			}
		}
	}
}
