package crp

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// seedShardedService spreads probe history across every shard of an
// 8-shard store and leaves all shards dirty (no query has compiled them).
func seedShardedService(t testing.TB, nodes int) *Service {
	t.Helper()
	s := NewServiceWithStore(StoreConfig{Shards: 8}, WithWindow(10))
	for n := 0; n < nodes; n++ {
		node := NodeID(fmt.Sprintf("node-%03d", n))
		for i := 0; i < 6; i++ {
			at := t0.Add(time.Duration(n*13+i) * time.Minute)
			r1 := ReplicaID(fmt.Sprintf("r%d", n%7))
			r2 := ReplicaID(fmt.Sprintf("r%d", (n+i)%7))
			if err := s.Observe(node, at, r1, r2); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// TestSnapshotWithDirtyShardsEqualsQuiescent is the regression test for
// snapshot consistency on the sharded store: a snapshot taken mid-churn —
// every shard dirty, nothing compiled — must be byte-identical to one
// taken at quiescence after the query path has patched every shard's
// compiled vectors. WriteSnapshot reads tracker histories, not compiled
// state, so shard dirtiness must be invisible to persistence.
func TestSnapshotWithDirtyShardsEqualsQuiescent(t *testing.T) {
	s := seedShardedService(t, 64)

	var dirty bytes.Buffer
	if err := s.WriteSnapshot(&dirty); err != nil {
		t.Fatalf("WriteSnapshot (dirty): %v", err)
	}

	// Force quiescence: a query compiles every shard's vectors.
	if _, err := s.TopK("node-000", nil, 5); err != nil {
		t.Fatal(err)
	}

	var quiescent bytes.Buffer
	if err := s.WriteSnapshot(&quiescent); err != nil {
		t.Fatalf("WriteSnapshot (quiescent): %v", err)
	}
	if !bytes.Equal(dirty.Bytes(), quiescent.Bytes()) {
		t.Fatalf("snapshot mid-churn differs from snapshot at quiescence:\ndirty:     %d bytes\nquiescent: %d bytes",
			dirty.Len(), quiescent.Len())
	}
}

// TestSnapshotRoundTripAcrossStoreShapes restores a sharded service's
// records into every store shape (sharded, single-shard, default) and
// asserts identical node sets and ratio maps: persistence is
// store-shape-agnostic in both directions.
func TestSnapshotRoundTripAcrossStoreShapes(t *testing.T) {
	src := seedShardedService(t, 48)
	shapes := map[string]StoreConfig{
		"sharded-8":    {Shards: 8},
		"single":       {Shards: 1},
		"defaults":     {},
		"sharded-wide": {Shards: 64},
	}
	for name, cfg := range shapes {
		t.Run(name, func(t *testing.T) {
			dst := restoredFrom(t, src, cfg, WithWindow(10))
			if !reflect.DeepEqual(src.Nodes(), dst.Nodes()) {
				t.Fatalf("node sets differ: %d vs %d nodes", len(src.Nodes()), len(dst.Nodes()))
			}
			for _, id := range src.Nodes() {
				a, err := src.RatioMap(id)
				if err != nil {
					t.Fatal(err)
				}
				b, err := dst.RatioMap(id)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("node %q maps differ:\n%v\n%v", id, a, b)
				}
			}
			// The restored store must serve queries, not just lookups.
			if _, err := dst.TopK("node-000", nil, 3); err != nil {
				t.Fatalf("TopK on restored service: %v", err)
			}
		})
	}
}

// TestSnapshotDuringConcurrentChurn hammers a sharded service with
// concurrent observes and queries while snapshots are written and records
// exported; every restore must come out whole. Run under -race this also
// asserts WriteSnapshot's and ExportDelta's reads are synchronized with
// shard mutation.
func TestSnapshotDuringConcurrentChurn(t *testing.T) {
	s := seedShardedService(t, 32)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				node := NodeID(fmt.Sprintf("node-%03d", (w*8+i)%32))
				at := t0.Add(time.Duration(1000+i) * time.Second)
				if err := s.Observe(node, at, ReplicaID(fmt.Sprintf("r%d", i%7))); err != nil {
					t.Error(err)
					return
				}
				if i%5 == 0 {
					if _, err := s.TopK(node, nil, 3); err != nil {
						t.Error(err)
						return
					}
				}
				i++
			}
		}(w)
	}

	for i := 0; i < 10; i++ {
		var buf bytes.Buffer
		if err := s.WriteSnapshot(&buf); err != nil {
			t.Fatalf("WriteSnapshot %d under churn: %v", i, err)
		}
		dst := restoredFrom(t, s, StoreConfig{Shards: 4}, WithWindow(10))
		if got := len(dst.Nodes()); got != 32 {
			t.Fatalf("snapshot %d restored %d nodes, want 32", i, got)
		}
	}
	close(stop)
	wg.Wait()
}
