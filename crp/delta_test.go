package crp

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// storeShapes are the three store configurations every replication property
// must hold under: one shard, the production defaults, and an explicit narrow
// sharding.
var storeShapes = []struct {
	name string
	cfg  StoreConfig
}{
	{"single", StoreConfig{Shards: 1}},
	{"defaults", StoreConfig{}},
	{"shards-8", StoreConfig{Shards: 8}},
}

func deltaTestService(cfg StoreConfig) *Service {
	svc := NewServiceWithStore(cfg, WithWindow(10))
	svc.SetOrigin("origin-a")
	return svc
}

var deltaBase = time.Unix(1_800_000_000, 0).UTC()

// TestDeltaRoundTripVersionedEntries exports every entry of a populated
// service and applies it into a fresh one, for each store shape: the
// replica must end up with identical probe windows, ratio maps, metadata
// and compiled snapshot bytes.
func TestDeltaRoundTripVersionedEntries(t *testing.T) {
	for _, shape := range storeShapes {
		t.Run(shape.name, func(t *testing.T) {
			src := deltaTestService(shape.cfg)
			for i := 0; i < 20; i++ {
				node := NodeID(fmt.Sprintf("n%03d", i))
				for k := 0; k < 3+i%4; k++ {
					at := deltaBase.Add(time.Duration(k) * time.Minute)
					if err := src.Observe(node, at, ReplicaID(fmt.Sprintf("r%d", (i+k)%5)), "r-shared"); err != nil {
						t.Fatal(err)
					}
				}
			}

			dst := deltaTestService(shape.cfg)
			dst.SetOrigin("origin-b") // receiving daemon's own identity must not leak into applied entries
			for _, node := range src.Nodes() {
				d, ok := src.ExportDelta(node)
				if !ok {
					t.Fatalf("ExportDelta(%s) = not found", node)
				}
				if d.Origin != "origin-a" {
					t.Fatalf("delta origin = %q, want origin-a", d.Origin)
				}
				if d.Version == 0 || d.Deleted || len(d.Probes) == 0 {
					t.Fatalf("malformed live delta: %+v", d)
				}
				applied, err := dst.ApplyDelta(d)
				if err != nil || !applied {
					t.Fatalf("ApplyDelta(%s) = %v, %v", node, applied, err)
				}
				// Idempotence: the identical delta must not re-apply.
				applied, err = dst.ApplyDelta(d)
				if err != nil || applied {
					t.Fatalf("re-ApplyDelta(%s) = %v, %v; want not applied", node, applied, err)
				}
			}

			var want, got bytes.Buffer
			if err := src.WriteSnapshot(&want); err != nil {
				t.Fatal(err)
			}
			if err := dst.WriteSnapshot(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatal("replicated snapshot differs from source")
			}
			wantDig, gotDig := src.ShardDigests(), dst.ShardDigests()
			for i := range wantDig {
				if wantDig[i] != gotDig[i] {
					t.Fatalf("shard %d digest differs after round trip", i)
				}
			}
		})
	}
}

// TestDeltaRoundTripTombstones pins tombstone replication for each shape: a
// forgotten node exports as a deleted delta (original deletion time, no
// probes), applying it on a replica that still holds the live entry removes
// the entry, and the tombstone survives until the GC horizon passes.
func TestDeltaRoundTripTombstones(t *testing.T) {
	for _, shape := range storeShapes {
		t.Run(shape.name, func(t *testing.T) {
			now := deltaBase
			clock := func() time.Time { return now }
			src := deltaTestService(shape.cfg)
			src.SetClock(clock)
			dst := deltaTestService(shape.cfg)
			dst.SetClock(clock)

			if err := src.Observe("victim", deltaBase, "r1", "r2"); err != nil {
				t.Fatal(err)
			}
			live, ok := src.ExportDelta("victim")
			if !ok {
				t.Fatal("live entry not exportable")
			}
			if applied, err := dst.ApplyDelta(live); err != nil || !applied {
				t.Fatalf("seeding replica: %v, %v", applied, err)
			}

			now = now.Add(5 * time.Minute)
			src.Forget("victim")
			tomb, ok := src.ExportDelta("victim")
			if !ok {
				t.Fatal("tombstone not exportable")
			}
			if !tomb.Deleted || len(tomb.Probes) != 0 {
				t.Fatalf("tombstone delta = %+v, want deleted with no probes", tomb)
			}
			if !tomb.DeletedAt.Equal(now) {
				t.Fatalf("tombstone DeletedAt = %v, want %v", tomb.DeletedAt, now)
			}
			if tomb.Version <= live.Version {
				t.Fatalf("tombstone version %d must exceed live version %d", tomb.Version, live.Version)
			}

			if applied, err := dst.ApplyDelta(tomb); err != nil || !applied {
				t.Fatalf("applying tombstone: %v, %v", applied, err)
			}
			if _, err := dst.RatioMap("victim"); err == nil {
				t.Fatal("replica still resolves the forgotten node")
			}
			// A stale live delta must not resurrect the entry.
			if applied, err := dst.ApplyDelta(live); err != nil || applied {
				t.Fatalf("stale live delta applied over tombstone: %v, %v", applied, err)
			}

			// The tombstone holds the stores' digests equal until GC.
			srcDig, dstDig := src.ShardDigests(), dst.ShardDigests()
			for i := range srcDig {
				if srcDig[i] != dstDig[i] {
					t.Fatalf("shard %d digest differs with tombstone in place", i)
				}
			}
			if n := dst.GCTombstones(now.Add(-time.Minute)); n != 0 {
				t.Fatalf("GC before horizon reclaimed %d tombstones", n)
			}
			if n := dst.GCTombstones(now.Add(time.Minute)); n != 1 {
				t.Fatalf("GC past horizon reclaimed %d tombstones, want 1", n)
			}
		})
	}
}

// TestDeltaInterleavingIndependence is the commutativity property the
// convergence argument rests on: applying the same delta set in different
// orders — including re-deliveries — must yield byte-identical snapshots
// and equal digests, for every store shape.
func TestDeltaInterleavingIndependence(t *testing.T) {
	for _, shape := range storeShapes {
		t.Run(shape.name, func(t *testing.T) {
			// Build a delta set with genuine LWW conflicts: two origins write
			// overlapping node sets, and some nodes end as tombstones.
			now := deltaBase
			clock := func() time.Time { return now }
			var deltas []NodeDelta
			for _, origin := range []string{"origin-a", "origin-b"} {
				svc := deltaTestService(shape.cfg)
				svc.SetOrigin(origin)
				svc.SetClock(clock)
				for i := 0; i < 12; i++ {
					node := NodeID(fmt.Sprintf("n%03d", i))
					probes := 2 + i%3
					if origin == "origin-b" {
						probes++ // different version counts, so LWW picks per node
					}
					for k := 0; k < probes; k++ {
						at := deltaBase.Add(time.Duration(k) * time.Minute)
						if err := svc.Observe(node, at, ReplicaID(origin[len(origin)-1:]), ReplicaID(fmt.Sprintf("r%d", k))); err != nil {
							t.Fatal(err)
						}
					}
					if origin == "origin-a" && i%5 == 0 {
						svc.Forget(node)
					}
					d, ok := svc.ExportDelta(node)
					if !ok {
						t.Fatalf("export %s from %s", node, origin)
					}
					deltas = append(deltas, d)
				}
			}

			apply := func(order []int) (digest []uint64, snap []byte) {
				svc := deltaTestService(shape.cfg)
				svc.SetClock(clock)
				for _, idx := range order {
					if _, err := svc.ApplyDelta(deltas[idx]); err != nil {
						t.Fatal(err)
					}
				}
				var buf bytes.Buffer
				if err := svc.WriteSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				return svc.ShardDigests(), buf.Bytes()
			}

			forward := make([]int, len(deltas))
			for i := range forward {
				forward[i] = i
			}
			refDig, refSnap := apply(forward)

			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 5; trial++ {
				order := append([]int(nil), forward...)
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				// Re-deliver a random third of the deltas (gossip duplicates).
				for i := 0; i < len(deltas)/3; i++ {
					order = append(order, rng.Intn(len(deltas)))
				}
				dig, snap := apply(order)
				if !bytes.Equal(refSnap, snap) {
					t.Fatalf("trial %d: snapshot differs under interleaving %v", trial, order)
				}
				for i := range refDig {
					if refDig[i] != dig[i] {
						t.Fatalf("trial %d: shard %d digest differs", trial, i)
					}
				}
			}
		})
	}
}

// TestApplyDeltaRejectsMalformed pins the validation edge of the
// replication surface.
func TestApplyDeltaRejectsMalformed(t *testing.T) {
	svc := deltaTestService(StoreConfig{})
	if _, err := svc.ApplyDelta(NodeDelta{NodeMeta: NodeMeta{Node: "", Version: 1}}); err == nil {
		t.Fatal("empty node accepted")
	}
	if _, err := svc.ApplyDelta(NodeDelta{NodeMeta: NodeMeta{Node: "n1", Version: 0}}); err == nil {
		t.Fatal("zero version accepted")
	}
}

// TestSupersedesTotalOrder enumerates the LWW tie-break rules.
func TestSupersedesTotalOrder(t *testing.T) {
	base := NodeMeta{Node: "n", Origin: "a", Version: 3}
	cases := []struct {
		name string
		m, o NodeMeta
		want bool
	}{
		{"higher version wins", NodeMeta{Version: 4, Origin: "a"}, base, true},
		{"lower version loses", NodeMeta{Version: 2, Origin: "z"}, base, false},
		{"equal version, greater origin wins", NodeMeta{Version: 3, Origin: "b"}, base, true},
		{"equal version, lesser origin loses", NodeMeta{Version: 3, Origin: "A"}, base, false},
		{"full tie, tombstone wins", NodeMeta{Version: 3, Origin: "a", Deleted: true}, base, true},
		{"identical never supersedes", base, base, false},
	}
	for _, tc := range cases {
		if got := tc.m.Supersedes(tc.o); got != tc.want {
			t.Errorf("%s: Supersedes = %v, want %v", tc.name, got, tc.want)
		}
	}
}
