package crp

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestServiceChurnStress interleaves every mutation and query the daemon
// and the peering layer expose — Observe of new and known nodes,
// ExportDelta, ApplyDelta, TopK, ClosestTo, Similarity, ClusterAll, Nodes,
// ShardMetas, ShardDigests — across goroutines, under three store shapes.
// Run with -race (the repo's make check does) this is the concurrency gate
// for the sharded store: snapshot stitching, per-shard patching, structural
// rebuilds, the publish step's overtaken-observe retry and its digest
// bookkeeping all race against ingestion here.
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
			// Seed enough nodes that queries always have candidates.
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
							if w%2 == 0 { // a new node: a structural rebuild
								if err := s.Observe(NodeID(fmt.Sprintf("new-%d-%d", w, i)), at, "r1"); err != nil {
									errs <- err
									return
								}
							} else {
								_, _ = s.Nodes(), s.ShardDigests()
							}
						case 6:
							if _, err := s.ShardMetas(s.ShardOf(node)); err != nil {
								errs <- err
								return
							}
							_, _ = s.ExportDelta(node)
						case 7:
							d := NodeDelta{NodeMeta: NodeMeta{Node: node, Origin: "peer", Version: uint64(i)},
								Probes: []Probe{{At: at, Replicas: []ReplicaID{"r0", "cdnB!r0"}}}}
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
			// the nodes.
			var listed []NodeID
			for i := 0; i < s.ShardCount(); i++ {
				metas, err := s.ShardMetas(i)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range metas {
					listed = append(listed, m.Node)
				}
			}
			slices.Sort(listed)
			if !slices.Equal(nodes, listed) {
				t.Errorf("Nodes() = %v, ShardMetas entries = %v", nodes, listed)
			}
			checkShards(t, s, "after churn")
		})
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
