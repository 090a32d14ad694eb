package crp

import (
	"reflect"
	"testing"
	"time"
)

func TestTrackerProbesCopy(t *testing.T) {
	tr := NewTracker()
	tr.Observe(t0, "r1", "r2")
	tr.Observe(t0.Add(time.Minute), "r3")
	probes := tr.Probes()
	if len(probes) != 2 {
		t.Fatalf("Probes = %d, want 2", len(probes))
	}
	if !probes[0].At.Equal(t0) || len(probes[0].Replicas) != 2 {
		t.Errorf("probe 0 = %+v", probes[0])
	}
	probes[0].Replicas[0] = "tampered"
	if tr.Probes()[0].Replicas[0] == "tampered" {
		t.Error("Probes exposes internal storage")
	}
}

// TestServiceSnapshotRoundTrip restores a populated service through its
// deltas: same nodes, same ratio maps, same replication metadata.
func TestServiceSnapshotRoundTrip(t *testing.T) {
	src := populateService(t)
	src.Forget("asia-2")
	dst := restoredFrom(t, src, StoreConfig{}, WithWindow(10))

	if !reflect.DeepEqual(src.Nodes(), dst.Nodes()) {
		t.Fatalf("node sets differ: %v vs %v", src.Nodes(), dst.Nodes())
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
			t.Errorf("node %q maps differ:\n%v\n%v", id, a, b)
		}
	}
	if !reflect.DeepEqual(src.ShardDigests(), dst.ShardDigests()) {
		t.Error("restored shard digests differ: replication metadata was not carried")
	}
}

func TestServiceSnapshotReappliesWindow(t *testing.T) {
	// Records of an unbounded service restored into a windowed one are
	// re-trimmed by the window.
	src := NewService()
	for i := 0; i < 50; i++ {
		if err := src.Observe("n", t0.Add(time.Duration(i)*time.Minute), "r"); err != nil {
			t.Fatal(err)
		}
	}
	dst := restoredFrom(t, src, StoreConfig{}, WithWindow(5))
	tr, ok := dst.store.get("n")
	if !ok {
		t.Fatal("restored service does not know node n")
	}
	if got := tr.Len(); got != 5 {
		t.Errorf("restored tracker holds %d probes, want window of 5", got)
	}
}
