package crp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"testing"
	"time"
)

// refWord is the digest word of one record computed independently: FNV-1a 64
// over node, 0, origin, 0, the version as 8 little-endian bytes and a 0 byte
// (where a deleted flag used to be hashed, kept so digests match older
// builds), then the murmur3 fmix64 finalizer.
func refWord(m NodeMeta) uint64 {
	h := fnv.New64a()
	h.Write([]byte(m.Node))
	h.Write([]byte{0})
	h.Write([]byte(m.Origin))
	h.Write([]byte{0})
	h.Write(binary.LittleEndian.AppendUint64(nil, m.Version))
	h.Write([]byte{0})
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// checkShards recomputes every shard's digest from its records and compares
// it with what publish maintained.
func checkShards(t *testing.T, svc *Service, step string) {
	t.Helper()
	st := svc.store
	got := svc.ShardDigests()
	for i := range st.shards {
		var sum uint64
		for _, r := range records(st.shards[i : i+1]) {
			sum += refWord(r.NodeMeta)
		}
		if got[i] != sum {
			t.Fatalf("%s: shard %d digest %x, reference sum over its records %x", step, i, got[i], sum)
		}
	}
}

// TestShardDigestMatchesReference drives a 4-shard store through random
// sequences of every write publish takes — observe of a new and of a known
// node, fresh, stale and equal deltas — and after each one checks every
// shard's maintained digest against a sum computed over its records.
// It then replays the final records into fresh stores in shuffled order: the
// digests must not depend on write order.
func TestShardDigestMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed-", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 37))
			clock := time.Unix(3_000_000, 0)
			svc := NewServiceWithStore(StoreConfig{Shards: 4}, WithWindow(4))
			svc.SetOrigin("self")
			nodes := make([]NodeID, 24)
			for i := range nodes {
				nodes[i] = NodeID(fmt.Sprintf("n-%02d", i))
			}
			origins := []string{"peer-a", "self", "peer-z"}
			probes := func() []Probe {
				return []Probe{{At: clock, Replicas: []ReplicaID{
					Qualify("akamai", ReplicaID(fmt.Sprint("r", rng.IntN(5)))),
					Qualify("limelight", ReplicaID(fmt.Sprint("r", rng.IntN(5)))),
				}}}
			}
			seen := make(map[string]int)
			for op := 0; op < 400; op++ {
				clock = clock.Add(time.Second)
				node := nodes[rng.IntN(len(nodes))]
				cur, known := svc.ExportDelta(node)
				var what string
				switch k := rng.IntN(5); {
				case k < 3:
					what = "observe"
					if !known {
						what = "observe-new"
					}
					p := probes()[0]
					if err := svc.Observe(node, clock, p.Replicas...); err != nil {
						t.Fatal(err)
					}
				case k == 3 || !known:
					what = "fresh-delta"
					d := NodeDelta{NodeMeta: NodeMeta{Node: node, Origin: origins[rng.IntN(3)], Version: cur.Version + 1 + uint64(rng.IntN(3))},
						Probes: probes()}
					applyOK(t, svc, d, true)
				default:
					what = "stale-or-equal-delta"
					d := NodeDelta{NodeMeta: cur.NodeMeta, Probes: probes()}
					if cur.Version > 1 && rng.IntN(2) == 0 {
						d.Version--
					}
					applyOK(t, svc, d, false)
				}
				seen[what]++
				checkShards(t, svc, fmt.Sprintf("op %d (%s %s)", op, what, node))
			}
			if len(seen) != 4 {
				t.Fatalf("op kinds exercised: %v, want all 4", seen)
			}

			var final []NodeDelta
			for _, id := range nodes {
				if d, ok := svc.ExportDelta(id); ok {
					final = append(final, d)
				}
			}
			want := svc.ShardDigests()
			for round := 0; round < 3; round++ {
				rng.Shuffle(len(final), func(i, j int) { final[i], final[j] = final[j], final[i] })
				replay := NewServiceWithStore(StoreConfig{Shards: 4}, WithWindow(4))
				for _, d := range final {
					applyOK(t, replay, d, true)
				}
				checkShards(t, replay, "replay")
				if got := replay.ShardDigests(); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("replay %d in shuffled order: digests %x, want %x", round, got, want)
				}
			}
		})
	}
}

func applyOK(t *testing.T, svc *Service, d NodeDelta, want bool) {
	t.Helper()
	got, err := svc.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("ApplyDelta(%+v) = %v, want %v", d.NodeMeta, got, want)
	}
}

// Each field a record's word covers moves its shard's digest: two stores
// that differ in one record's origin or version disagree.
func TestShardDigestCoversEveryField(t *testing.T) {
	at := time.Unix(4_000_000, 0)
	base := NodeDelta{NodeMeta: NodeMeta{Node: "n-1", Origin: "peer-a", Version: 7},
		Probes: []Probe{{At: at, Replicas: []ReplicaID{"r1"}}}}
	digest := func(d NodeDelta) uint64 {
		svc := NewServiceWithStore(StoreConfig{Shards: 4})
		applyOK(t, svc, NodeDelta{NodeMeta: NodeMeta{Node: "n-2", Origin: "peer-a", Version: 3},
			Probes: base.Probes}, true)
		applyOK(t, svc, d, true)
		return svc.ShardDigests()[svc.ShardOf(d.Node)]
	}
	want := digest(base)
	origin, version := base, base
	origin.Origin = "peer-b"
	version.Version++
	for name, d := range map[string]NodeDelta{"origin": origin, "version": version} {
		if got := digest(d); got == want {
			t.Errorf("changing %s left the shard digest at %x", name, got)
		}
	}
}

// Keeping the digest current costs no allocation. Observe of a known node
// with a full window allocates nothing (the probe shifts into the window's
// own slices) and ApplyDelta three times (the replacement tracker, its probe
// heads and its replica IDs; the record's map slot is reused): only what the
// tracker itself needs.
func TestDigestUpkeepAllocatesNothing(t *testing.T) {
	svc := NewServiceWithStore(StoreConfig{Shards: 4}, WithWindow(10))
	at := time.Unix(5_000_000, 0)
	for i := 0; i < 20; i++ {
		at = at.Add(time.Second)
		if err := svc.Observe("known", at, "r1", "r2"); err != nil {
			t.Fatal(err)
		}
	}
	observe := testing.AllocsPerRun(200, func() {
		at = at.Add(time.Second)
		if err := svc.Observe("known", at, "r1", "r2"); err != nil {
			t.Fatal(err)
		}
	})
	d := NodeDelta{NodeMeta: NodeMeta{Node: "remote", Origin: "peer-a", Version: 1},
		Probes: []Probe{{At: at, Replicas: []ReplicaID{"r1", "r2"}}}}
	applyOK(t, svc, d, true)
	apply := testing.AllocsPerRun(200, func() {
		d.Version++
		if ok, err := svc.ApplyDelta(d); err != nil || !ok {
			t.Fatalf("ApplyDelta = %v, %v", ok, err)
		}
	})
	if observe != 0 || apply != 3 {
		t.Fatalf("allocs: observe %v (want 0), apply delta %v (want 3)", observe, apply)
	}
}

// A delta that loses the last-writer-wins comparison — older, or equal to the
// record — is refused before its probe window is replayed, so it costs no
// allocation at all, however many probes it carries.
func TestStaleDeltaAllocatesNothing(t *testing.T) {
	svc := NewServiceWithStore(StoreConfig{Shards: 4}, WithWindow(10))
	at := time.Unix(5_000_000, 0)
	probes := make([]Probe, 10)
	for i := range probes {
		probes[i] = Probe{At: at.Add(time.Duration(i) * time.Second), Replicas: []ReplicaID{"r1", "r2"}}
	}
	cur := NodeDelta{NodeMeta: NodeMeta{Node: "remote", Origin: "peer-b", Version: 7}, Probes: probes}
	applyOK(t, svc, cur, true)
	for name, d := range map[string]NodeDelta{
		"stale": {NodeMeta: NodeMeta{Node: "remote", Origin: "peer-z", Version: 6}, Probes: probes},
		"equal": cur,
	} {
		if allocs := testing.AllocsPerRun(200, func() { applyOK(t, svc, d, false) }); allocs != 0 {
			t.Errorf("ApplyDelta of the %s 10-probe delta: %v allocations, want 0", name, allocs)
		}
	}
}

// Exporting a record copies its window in two allocations, the probe list
// and one array behind every probe's replicas, whatever the window's length
// (11 for a 10-probe window when each probe had its own replica slice).
func TestExportDeltaAllocBudget(t *testing.T) {
	svc := NewService(WithWindow(10))
	at := time.Unix(5_000_000, 0)
	for i := 0; i < 10; i++ {
		if err := svc.Observe("n", at.Add(time.Duration(i)*time.Second), "r1", "r2"); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := svc.ExportDelta("n"); !ok {
			t.Fatal("ExportDelta found no node n")
		}
	})
	if allocs != 2 {
		t.Fatalf("ExportDelta of a 10-probe record: %v allocations, want 2", allocs)
	}
}

// The maintained digest tracks every metadata mutation class: a new node, a
// version-advancing observe and a remote delta application each move it.
func TestShardDigestCacheTracksMutations(t *testing.T) {
	base := time.Unix(2_000_000, 0)
	svc := NewService()
	shard := svc.ShardOf("node-b")
	d0 := svc.ShardDigests()[shard]

	if err := svc.Observe("node-b", base, "R1"); err != nil {
		t.Fatal(err)
	}
	d1 := svc.ShardDigests()[shard]
	if d1 == d0 {
		t.Fatal("digest unchanged after a new node")
	}

	if err := svc.Observe("node-b", base.Add(time.Second), "R2"); err != nil {
		t.Fatal(err)
	}
	d2 := svc.ShardDigests()[shard]
	if d2 == d1 {
		t.Fatal("digest unchanged after a version-advancing observe")
	}

	applied, err := svc.ApplyDelta(NodeDelta{
		NodeMeta: NodeMeta{Node: "node-b", Origin: "peer-1", Version: 100},
		Probes:   []Probe{{At: base, Replicas: []ReplicaID{"R3"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Fatal("superseding delta not applied")
	}
	if d3 := svc.ShardDigests()[shard]; d3 == d2 {
		t.Fatal("digest unchanged after remote delta application")
	}
}
