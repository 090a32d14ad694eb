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
				if d.Version == 0 || len(d.Probes) == 0 {
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

// TestDeltaInterleavingIndependence is the commutativity property the
// convergence argument rests on: applying the same delta set in different
// orders — including re-deliveries — must yield byte-identical snapshots
// and equal digests, for every store shape.
func TestDeltaInterleavingIndependence(t *testing.T) {
	for _, shape := range storeShapes {
		t.Run(shape.name, func(t *testing.T) {
			// Build a delta set with genuine LWW conflicts: two origins write
			// overlapping node sets, and some nodes tie on version so the
			// origin decides.
			var deltas []NodeDelta
			for _, origin := range []string{"origin-a", "origin-b"} {
				svc := deltaTestService(shape.cfg)
				svc.SetOrigin(origin)
				for i := 0; i < 12; i++ {
					node := NodeID(fmt.Sprintf("n%03d", i))
					probes := 2 + i%3
					if origin == "origin-b" || i%5 == 0 {
						probes++ // different version counts, so LWW picks per node
					}
					for k := 0; k < probes; k++ {
						at := deltaBase.Add(time.Duration(k) * time.Minute)
						if err := svc.Observe(node, at, ReplicaID(origin[len(origin)-1:]), ReplicaID(fmt.Sprintf("r%d", k))); err != nil {
							t.Fatal(err)
						}
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
		{"identical never supersedes", base, base, false},
	}
	for _, tc := range cases {
		if got := tc.m.Supersedes(tc.o); got != tc.want {
			t.Errorf("%s: Supersedes = %v, want %v", tc.name, got, tc.want)
		}
	}
}
