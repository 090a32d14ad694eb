package crp

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// rebuildKinds tallies what the snapshot rebuilds of a property run did, so
// the test can insist that every path of storeShard.vecs was exercised.
type rebuildKinds struct {
	recollects, patches, reusedPosts, rebuiltPosts int
}

// snapshotCounting takes st's snapshot and classifies each shard's rebuild:
// a re-collect (membership changed) or a patch, and for a patch whether the
// previous postings were kept (no patched replica set changed) or rebuilt.
// Whichever way they came, a rebuilt part's postings must equal a fresh
// build over its vectors.
func snapshotCounting(t *testing.T, st *store, kinds *rebuildKinds) storeSnap {
	t.Helper()
	type before struct {
		structural bool
		post       *postings
	}
	dirty := make(map[int]before)
	for i := range st.shards {
		sh := &st.shards[i]
		if sh.snapVecs == nil || sh.snapVersion != sh.version.Load() {
			sh.mu.RLock()
			dirty[i] = before{sh.structural || sh.snapVecs == nil, sh.snapPost}
			sh.mu.RUnlock()
		}
	}
	snap := st.snapshot()
	for i, b := range dirty {
		if got, want := snap.posts[i], new(postBuf).build(snap.parts[i]); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d postings %+v, a fresh build gives %+v", i, got, want)
		}
		switch {
		case b.structural:
			kinds.recollects++
		case snap.posts[i] == b.post:
			kinds.patches++
			kinds.reusedPosts++
		default:
			kinds.patches++
			kinds.rebuiltPosts++
		}
	}
	return snap
}

// unionSize counts the nodes of snap that share a replica ID with client.
func unionSize(client ratioVec, snap storeSnap) int {
	n := 0
	for _, part := range snap.parts {
		for _, nv := range part {
			if slices.ContainsFunc(nv.vec.ids, func(r ReplicaID) bool { return slices.Contains(client.ids, r) }) {
				n++
			}
		}
	}
	return n
}

// checkTopAll compares the indexed all-nodes Top-K against the full scan of
// the same snapshot, element by element, for every k the property covers.
func checkTopAll(t *testing.T, where string, client NodeID, cv ratioVec, snap storeSnap, sims map[string]simFunc) {
	t.Helper()
	u := unionSize(cv, snap)
	for name, sim := range sims {
		for _, k := range []int{1, 5, u, u + 3, snap.total + 1} {
			got := topAll(cv, snap, k, client, sim)
			want := topSnap(cv, snap, k, client, sim)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: client %s, kernel %s, k=%d (union %d, N %d):\nindexed   %v\nfull scan %v",
					where, client, name, k, u, snap.total, got, want)
			}
		}
	}
}

// TestTopAllMatchesFullScan is the exactness property of the posting index:
// on random stores driven by observes, namespaced forgets, forgets and
// remote deltas, every indexed all-nodes reply equals the full scan of the
// same snapshot, under the plain, fused (with a muted namespace, so some
// union nodes score exactly 0) and namespace-scoped kernels, for k from 1
// past N, for a tracked client (excluded from its own reply), an aggregated
// client and a client whose window a namespaced forget emptied.
func TestTopAllMatchesFullScan(t *testing.T) {
	for _, shards := range []int{1, 0} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				testTopAllSeed(t, shards, seed)
			}
		})
	}
}

func testTopAllSeed(t *testing.T, shards int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	svc := NewServiceWithStore(StoreConfig{Shards: shards}, WithWindow(6))
	if err := svc.EnableAggregation(AggregatorConfig{KeyOf: groupByFirstByte}); err != nil {
		t.Fatal(err)
	}
	fused, err := newFusionKernel(FusionConfig{Weights: map[Namespace]float64{"mute": 0}})
	if err != nil {
		t.Fatal(err)
	}
	sims := map[string]simFunc{"plain": plainCosine, "fused": fused.cosine, "ns=b": nsSim("b")}

	// Each node draws from a small home set, so repeat observes often leave
	// its replica set as it was (postings reused) and sometimes move it
	// (postings rebuilt).
	namespaces := []Namespace{DefaultNamespace, "b", "mute"}
	replica := func(j int) ReplicaID {
		return Qualify(namespaces[j%len(namespaces)], ReplicaID(fmt.Sprintf("r%02d", j)))
	}
	const nodes, replicas = 150, 40
	home := func(n int) []ReplicaID {
		var out []ReplicaID
		for _, j := range []int{n % replicas, (n*7 + 3) % replicas, (n*13 + 5) % replicas} {
			out = append(out, replica(j))
		}
		return out
	}
	probe := func(n int) []ReplicaID {
		h := home(n)
		if rng.Intn(20) == 0 {
			return []ReplicaID{replica(rng.Intn(replicas))}
		}
		return []ReplicaID{h[rng.Intn(len(h))], h[rng.Intn(len(h))]}
	}
	nodeID := func(n int) NodeID { return NodeID(fmt.Sprintf("n%03d", n)) }
	at := time.Unix(1_000, 0)
	tick := func() time.Time { at = at.Add(time.Second); return at }
	for n := 0; n < nodes; n++ {
		for i := 0; i < 4; i++ {
			if err := svc.Observe(nodeID(n), tick(), probe(n)...); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 6; i++ {
		if err := svc.Observe("cA-1", tick(), probe(i)...); err != nil {
			t.Fatal(err)
		}
	}
	if _, tracked, err := svc.resolve("cA-1"); err != nil || tracked {
		t.Fatalf("cA-1 should resolve through its aggregate: tracked %v, %v", tracked, err)
	}
	// n000's window holds only namespace b: forgetting b empties it.
	emptied := nodeID(0)
	if ok, err := svc.ApplyDelta(NodeDelta{
		NodeMeta: NodeMeta{Node: emptied, Origin: "peer", Version: 1 << 20},
		Probes:   []Probe{{At: tick(), Replicas: []ReplicaID{replica(1), replica(4)}}},
	}); err != nil || !ok {
		t.Fatalf("ApplyDelta(%s) = %v, %v", emptied, ok, err)
	}
	if ok, err := svc.ForgetNamespace(emptied, "b"); err != nil || !ok {
		t.Fatalf("ForgetNamespace(%s, b) = %v, %v", emptied, ok, err)
	}

	var kinds rebuildKinds
	for step := 0; step < 80; step++ {
		for ops := rng.Intn(4) + 1; ops > 0; ops-- {
			n := rng.Intn(nodes)
			if n == 0 {
				continue // keep the emptied client as it is
			}
			switch op := rng.Intn(20); {
			case op < 14:
				if err := svc.Observe(nodeID(n), tick(), probe(n)...); err != nil {
					t.Fatal(err)
				}
			case op < 16:
				if _, err := svc.ForgetNamespace(nodeID(n), namespaces[rng.Intn(len(namespaces))]); err != nil {
					t.Fatal(err)
				}
			case op < 17:
				svc.Forget(nodeID(n))
			default:
				d, _ := svc.ExportDelta(nodeID(n))
				d = NodeDelta{NodeMeta: NodeMeta{Node: nodeID(n), Origin: "peer", Version: d.Version + 1}}
				for i := 0; i < 3; i++ {
					d.Probes = append(d.Probes, Probe{At: tick(), Replicas: probe(n)})
				}
				if _, err := svc.ApplyDelta(d); err != nil {
					t.Fatal(err)
				}
			}
		}
		snap := snapshotCounting(t, svc.store, &kinds)
		where := fmt.Sprintf("shards=%d seed=%d step=%d", shards, seed, step)
		clients := []NodeID{emptied, "cA-1", nodeID(rng.Intn(nodes)), nodeID(rng.Intn(nodes))}
		for _, c := range clients {
			cv, _, err := svc.resolve(c)
			if err != nil {
				continue // forgotten
			}
			checkTopAll(t, where, c, cv, snap, sims)
		}
		// The Service's own entry agrees with the full scan too.
		if got, err := svc.TopK(clients[2], nil, 5); err == nil {
			cv, _, _ := svc.resolve(clients[2])
			if want := topSnap(cv, snap, 5, clients[2], svc.simFn()); !slices.Equal(got, want) {
				t.Fatalf("%s: TopK(%s) = %v, full scan %v", where, clients[2], got, want)
			}
		}
	}
	if cv, _, _ := svc.resolve(emptied); len(cv.ids) != 0 {
		t.Fatalf("%s kept replicas %v after its namespace was forgotten", emptied, cv.ids)
	}
	if kinds.recollects == 0 || kinds.patches == 0 || kinds.reusedPosts == 0 || kinds.rebuiltPosts == 0 {
		t.Fatalf("shards=%d seed=%d: a rebuild path never ran: %+v", shards, seed, kinds)
	}
}

// TestTopAllKeyCollision pins the hashed-key case: two replica IDs whose
// keys collide share one posting list, so the union holds a node that
// shares no replica with the client. It must score 0 and rank exactly where
// the full scan ranks it.
func TestTopAllKeyCollision(t *testing.T) {
	seen := make(map[uint32]ReplicaID)
	var a, b ReplicaID
	for i := 0; a == ""; i++ {
		r := ReplicaID(fmt.Sprintf("x%d", i))
		if prev, ok := seen[replicaKey(r)]; ok {
			a, b = prev, r
		}
		seen[replicaKey(r)] = r
	}
	svc := NewServiceWithStore(StoreConfig{Shards: 1})
	at := time.Unix(1_000, 0)
	for _, o := range []struct {
		node NodeID
		rs   []ReplicaID
	}{
		{"client", []ReplicaID{a}},
		{"near", []ReplicaID{a, "y"}},
		{"aliased", []ReplicaID{b}},
		{"far", []ReplicaID{"z"}},
		{"bare", []ReplicaID{"y"}},
	} {
		if err := svc.Observe(o.node, at, o.rs...); err != nil {
			t.Fatal(err)
		}
	}
	snap := svc.store.snapshot()
	if got := snap.posts[0].nodes(replicaKey(a)); len(got) != 3 {
		t.Fatalf("replicas %q and %q should share one list of 3 nodes, got %v", a, b, got)
	}
	cv, _, err := svc.resolve("client")
	if err != nil {
		t.Fatal(err)
	}
	checkTopAll(t, "collision", "client", cv, snap, map[string]simFunc{"plain": plainCosine})
	got := topAll(cv, snap, 10, "client", plainCosine)
	want := []Scored{{Node: "near", Similarity: got[0].Similarity}, {Node: "aliased"}, {Node: "bare"}, {Node: "far"}}
	if !slices.Equal(got, want) || got[0].Similarity <= 0 {
		t.Fatalf("topAll = %v, want %v", got, want)
	}
}

// topAllAllocBudget is what the same query allocated when it scanned every
// node: the reply, the scoring fan-out's closure and its part offsets.
const topAllAllocBudget = 3

// TestTopAllAllocsSteadyState pins the query's allocation count on a clean
// store: the stitched snapshot is cached, the union, scores and key
// buffers are pooled, and what is left is the reply and the scoring
// fan-out's bookkeeping.
func TestTopAllAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	svc := NewService(WithWindow(10))
	at := time.Unix(1_000, 0)
	for n := 0; n < 2_000; n++ {
		m := n / 50
		for i := 0; i < 5; i++ {
			if err := svc.Observe(NodeID(fmt.Sprintf("m%02d-n%03d", m, n)), at,
				ReplicaID(fmt.Sprintf("m%02d-r%d", m, i%3)), ReplicaID(fmt.Sprintf("m%02d-r%d", (m+i)%40, 0))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := svc.TopK("m07-n351", nil, 5); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := svc.TopK("m07-n351", nil, 5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > topAllAllocBudget {
		t.Fatalf("all-nodes TopK allocates %.1f per query, budget %d", allocs, topAllAllocBudget)
	}
}
