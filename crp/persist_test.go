package crp

import (
	"bytes"
	"fmt"
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
	_ = append(probes[0].Replicas, "appended")
	if probes[1].Replicas[0] != "r3" {
		t.Errorf("an append to probe 0's replicas overwrote probe 1's: %v", probes[1].Replicas)
	}
}

// TestServiceSnapshotRoundTrip restores a populated service through its
// deltas: same nodes, same ratio maps, same replication metadata.
func TestServiceSnapshotRoundTrip(t *testing.T) {
	src := populateService(t)
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

// A probe's instant survives the window whole: the zero time, the last
// nanosecond a peer may send (binwire accepts years 0-9999, past UnixNano's
// 2262), a reading with a monotonic clock and one in a non-UTC zone all come
// back Equal from Probes and ExportDelta, and a peer fed the delta writes the
// origin's snapshot byte for byte. The window is shifted once, so the
// instants are read after moving down it.
func TestProbeInstantsSurviveTheWindow(t *testing.T) {
	instants := []time.Time{
		{},
		time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
		time.Now(),
		time.Date(2026, 7, 1, 12, 30, 0, 123_456_789, time.FixedZone("x", 19800)),
	}
	origin := NewService(WithWindow(len(instants)))
	if err := origin.Observe("n", t0, "dropped"); err != nil {
		t.Fatal(err)
	}
	for i, at := range instants {
		if err := origin.Observe("n", at, ReplicaID(fmt.Sprint("r", i)), "shared"); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, probes []Probe) {
		t.Helper()
		if len(probes) != len(instants) {
			t.Fatalf("%s: %d probes, want %d", what, len(probes), len(instants))
		}
		for i, p := range probes {
			if !p.At.Equal(instants[i]) {
				t.Errorf("%s: probe %d at %v, want %v", what, i, p.At, instants[i])
			}
		}
	}
	tr, ok := origin.store.get("n")
	if !ok {
		t.Fatal("origin lost node n")
	}
	check("Probes", tr.Probes())
	d, ok := origin.ExportDelta("n")
	if !ok {
		t.Fatal("ExportDelta found no node n")
	}
	check("ExportDelta", d.Probes)

	peer := NewService(WithWindow(len(instants)))
	applyOK(t, peer, d, true)
	var a, b bytes.Buffer
	if err := origin.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := peer.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("peer snapshot differs from the origin's:\n%s\n%s", b.Bytes(), a.Bytes())
	}
}
