package crp

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
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
			want := topSnap(cv, snap.flatten(), k, client, sim)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: client %s, kernel %s, k=%d (union %d, N %d):\nindexed   %v\nfull scan %v",
					where, client, name, k, u, snap.total, got, want)
			}
		}
	}
}

// TestTopAllMatchesFullScan is the exactness property of the posting index:
// on random stores driven by observes of known and new nodes and by remote
// deltas, every indexed all-nodes reply equals the full scan of the same
// snapshot, under the plain, fused (with a muted namespace, so some union
// nodes score exactly 0) and namespace-scoped kernels, for k from 1 past N,
// for a tracked client (excluded from its own reply), an aggregated client
// and a client that shares no replica with any other node.
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
	const lone = NodeID("lone")
	if err := svc.Observe(lone, tick(), "solo"); err != nil {
		t.Fatal(err)
	}
	_ = svc.store.snapshot() // the first build re-collects every shard; count what follows

	var kinds rebuildKinds
	seen := make(map[string]int)
	next := nodes // nodes n >= next are not observed yet
	for step := 0; step < 80; step++ {
		for ops := rng.Intn(4) + 1; ops > 0; ops-- {
			n := rng.Intn(nodes)
			switch op := rng.Intn(20); {
			case op < 14:
				seen["observe"]++
				if err := svc.Observe(nodeID(n), tick(), probe(n)...); err != nil {
					t.Fatal(err)
				}
			case op < 16:
				seen["observe-new"]++ // a new record: its shard re-collects
				if err := svc.Observe(nodeID(next), tick(), probe(next)...); err != nil {
					t.Fatal(err)
				}
				next++
			default:
				seen["delta"]++
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
		clients := []NodeID{lone, "cA-1", nodeID(rng.Intn(nodes)), nodeID(rng.Intn(nodes))}
		for _, c := range clients {
			cv, _, err := svc.resolve(c)
			if err != nil {
				t.Fatal(err)
			}
			checkTopAll(t, where, c, cv, snap, sims)
		}
		// The Service's own entry agrees with the full scan too.
		if got, err := svc.TopK(clients[2], nil, 5); err == nil {
			cv, _, _ := svc.resolve(clients[2])
			if want := topSnap(cv, snap.flatten(), 5, clients[2], svc.simFn()); !slices.Equal(got, want) {
				t.Fatalf("%s: TopK(%s) = %v, full scan %v", where, clients[2], got, want)
			}
		}
	}
	if len(seen) != 3 {
		t.Fatalf("shards=%d seed=%d: op kinds exercised %v, want all 3", shards, seed, seen)
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

// Allocation budgets of the two Top-K paths on a clean store. Each query
// allocates its reply and the scoring fan-out's closure; everything else is
// pooled: the all-nodes query's union, scores and key buffers, and an
// explicit list's candidate vectors and duplicate filter.
// testing.AllocsPerRun runs at GOMAXPROCS 1, so these count the inline
// scoring path; the closure escapes to the workers either way.
const (
	topAllAllocBudget  = 2
	topListAllocBudget = 2
)

// allocBudgetService is the 2,000-node, 40-metro store both budgets query.
func allocBudgetService(t *testing.T) *Service {
	t.Helper()
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
	return svc
}

// checkAllocBudget runs query once to warm the snapshot and pools, then
// fails when its steady-state allocation count exceeds budget.
func checkAllocBudget(t *testing.T, what string, budget int, query func() error) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	if err := query(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := query(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(budget) {
		t.Fatalf("%s allocates %.1f per query, budget %d", what, allocs, budget)
	}
}

// TestTopAllAllocsSteadyState pins the all-nodes query's allocation count.
func TestTopAllAllocsSteadyState(t *testing.T) {
	svc := allocBudgetService(t)
	checkAllocBudget(t, "all-nodes TopK", topAllAllocBudget, func() error {
		_, err := svc.TopK("m07-n351", nil, 5)
		return err
	})
}

// TestTopListAllocsSteadyState pins the explicit-candidate query's
// allocation count, over the paper's aggregate-query size of 240
// candidates.
func TestTopListAllocsSteadyState(t *testing.T) {
	svc := allocBudgetService(t)
	cands := make([]NodeID, 240)
	for i := range cands {
		cands[i] = NodeID(fmt.Sprintf("m%02d-n%03d", i*8/50, i*8))
	}
	checkAllocBudget(t, "240-candidate TopK", topListAllocBudget, func() error {
		_, err := svc.TopK("m07-n351", cands, 5)
		return err
	})
}

// topAllTwoProcsAllocBudget is the all-nodes query's count with its scoring
// fanned out over two workers: the two inline allocations plus what
// parallelFor costs per query (its goroutines and their closure, the
// WaitGroup and the claim counter). A lazily started worker set would bring
// it down to topAllAllocBudget; until then it pins today's count, so a
// fan-out that allocates more fails.
const topAllTwoProcsAllocBudget = 7

// TestTopAllAllocsAtTwoProcs counts the all-nodes query at GOMAXPROCS 2,
// where its ~250-node union fans out. testing.AllocsPerRun pins GOMAXPROCS
// 1, which never fans out, so this counts process mallocs around a loop
// with runtime.ReadMemStats instead.
func TestTopAllAllocsAtTwoProcs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	svc := allocBudgetService(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	query := func() {
		if _, err := svc.TopK("m07-n351", nil, 5); err != nil {
			t.Fatal(err)
		}
	}
	query()
	const n = 400
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	perQuery := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("all-nodes TopK at GOMAXPROCS 2: %.2f allocations per query", perQuery)
	// Half an allocation over the budget absorbs the pooled buffers a query
	// misses when it runs on the other P (about 0.2 a query); one more
	// allocation per query is twice that.
	if perQuery > topAllTwoProcsAllocBudget+0.5 {
		t.Fatalf("all-nodes TopK at GOMAXPROCS 2 allocates %.2f per query, budget %d", perQuery, topAllTwoProcsAllocBudget)
	}
}
