package crp

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestShardCountDefaults(t *testing.T) {
	// Explicit widths are only rounded, never clamped: Shards: 1 is one shard.
	cases := []struct{ in, want int }{
		{1, 1}, {5, 8}, {255, 256}, {256, 256}, {257, 512},
	}
	for _, c := range cases {
		if got := shardCount(c.in); got != c.want {
			t.Errorf("shardCount(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	if got := defaultShardCount(); got < 256 || got > 1024 || got&(got-1) != 0 {
		t.Errorf("defaultShardCount() = %d, want a power of two in [256, 1024]", got)
	}
}

func TestStoreShardRoutingIsStableAndSpread(t *testing.T) {
	st := newStore(StoreConfig{Shards: 16}, nil)
	used := make(map[*storeShard]int)
	for i := 0; i < 512; i++ {
		id := NodeID(fmt.Sprintf("node-%04d", i))
		a, b := st.shardFor(id), st.shardFor(id)
		if a != b {
			t.Fatalf("shardFor(%q) not stable", id)
		}
		used[a]++
	}
	if len(used) < 12 {
		t.Errorf("512 ids landed on only %d of 16 shards; hash is degenerate", len(used))
	}
}

// TestStoreSnapshotReusesCleanShards pins the tentpole property: a mutation
// invalidates only its own shard's compiled sub-snapshot, so re-assembly
// reuses every other shard's slice untouched.
func TestStoreSnapshotReusesCleanShards(t *testing.T) {
	st := newStore(StoreConfig{Shards: 8}, nil)
	at := time.Unix(0, 0)
	for i := 0; i < 64; i++ {
		st.observe(NodeID(fmt.Sprintf("n-%03d", i)), func(tr *Tracker) {
			tr.Observe(at, ReplicaID(fmt.Sprintf("r%d", i%4)))
		})
	}
	before := st.snapshot()

	target := NodeID("n-017")
	dirtyIdx := -1
	for i := range st.shards {
		if &st.shards[i] == st.shardFor(target) {
			dirtyIdx = i
		}
	}
	st.observe(target, func(tr *Tracker) { tr.Observe(at.Add(time.Minute), "r9") })
	after := st.snapshot()

	if len(after.parts) != len(before.parts) {
		t.Fatalf("part count changed: %d -> %d", len(before.parts), len(after.parts))
	}
	for i := range after.parts {
		same := len(before.parts[i]) == len(after.parts[i]) &&
			(len(after.parts[i]) == 0 || &before.parts[i][0] == &after.parts[i][0])
		if i == dirtyIdx && same {
			t.Errorf("shard %d was mutated but its sub-snapshot slice was reused", i)
		}
		if i != dirtyIdx && !same {
			t.Errorf("shard %d was clean but its sub-snapshot was rebuilt", i)
		}
	}

	// The patched shard must carry the new observation.
	found := false
	for _, nv := range after.parts[dirtyIdx] {
		if nv.id == target {
			found = true
			for j, r := range nv.vec.ids {
				if r == "r9" && nv.vec.vals[j] > 0 {
					return
				}
			}
			t.Errorf("patched vector for %q lacks the new replica: %v", target, nv.vec.ids)
		}
	}
	if !found {
		t.Fatalf("node %q missing from its shard's sub-snapshot", target)
	}
}

// TestStoreSnapshotIsImmutable pins the stitched snapshot's contract: a
// snapshot handed out before a round of mutations still describes the old
// state, part for part and value for value.
func TestStoreSnapshotIsImmutable(t *testing.T) {
	st := newStore(StoreConfig{Shards: 4}, nil)
	at := time.Unix(0, 0)
	for i := 0; i < 32; i++ {
		st.observe(NodeID(fmt.Sprintf("n-%03d", i)), func(tr *Tracker) {
			tr.Observe(at, "r0")
		})
	}
	snap := st.snapshot()
	frozen := make(map[NodeID][]float64, snap.total)
	for _, part := range snap.parts {
		for _, nv := range part {
			frozen[nv.id] = append([]float64(nil), nv.vec.vals...)
		}
	}

	for i := 0; i < 32; i++ {
		st.observe(NodeID(fmt.Sprintf("n-%03d", i)), func(tr *Tracker) {
			tr.Observe(at.Add(time.Minute), "r1", "r2")
		})
	}
	st.observe("n-new", func(tr *Tracker) { tr.Observe(at, "r3") })
	_ = st.snapshot() // force rebuilds on top of the old parts

	for _, part := range snap.parts {
		for _, nv := range part {
			want := frozen[nv.id]
			if len(nv.vec.vals) != len(want) {
				t.Fatalf("snapshot entry %q mutated in place: %v", nv.id, nv.vec.vals)
			}
			for j := range want {
				if nv.vec.vals[j] != want[j] {
					t.Fatalf("snapshot entry %q mutated in place: %v != %v", nv.id, nv.vec.vals, want)
				}
			}
		}
	}
}

// TestStoreNewNodeRebuildsShard pins the structural path: after a new node
// the shard re-collects and re-sorts, and the stitched snapshot lists it.
func TestStoreNewNodeRebuildsShard(t *testing.T) {
	st := newStore(StoreConfig{Shards: 4}, nil)
	at := time.Unix(0, 0)
	for i := 0; i < 16; i += 2 {
		st.observe(NodeID(fmt.Sprintf("n-%03d", i)), func(tr *Tracker) {
			tr.Observe(at, "r0")
		})
	}
	_ = st.snapshot()
	st.observe("n-007", func(tr *Tracker) { tr.Observe(at, "r0") })
	snap := st.snapshot()
	if snap.total != 9 {
		t.Fatalf("snapshot total = %d after a new node, want 9", snap.total)
	}
	found := false
	for _, part := range snap.parts {
		for i, nv := range part {
			found = found || nv.id == "n-007"
			if i > 0 && part[i-1].id >= nv.id {
				t.Fatalf("sub-snapshot not sorted: %q before %q", part[i-1].id, nv.id)
			}
		}
	}
	if !found {
		t.Fatal("new node missing from the stitched snapshot")
	}
}

// TestStoreSnapshotSingleFlight pins that clean snapshots are cache hits:
// repeated assembly without mutations performs no shard recompiles.
func TestStoreSnapshotSingleFlight(t *testing.T) {
	st := newStore(StoreConfig{Shards: 4}, nil)
	at := time.Unix(0, 0)
	for i := 0; i < 16; i++ {
		st.observe(NodeID(fmt.Sprintf("n-%03d", i)), func(tr *Tracker) {
			tr.Observe(at, "r0")
		})
	}
	_ = st.snapshot()
	rebuilds := svcMetrics.shardRebuilds.Value()
	hits := svcMetrics.snapshotHits.Value()
	for i := 0; i < 5; i++ {
		_ = st.snapshot()
	}
	if got := svcMetrics.shardRebuilds.Value() - rebuilds; got != 0 {
		t.Errorf("%d shard rebuilds on clean snapshots, want 0", got)
	}
	if got := svcMetrics.snapshotHits.Value() - hits; got != 5 {
		t.Errorf("%d stitched-cache hits, want 5", got)
	}
}

// restoredFrom returns a fresh service holding every record of src,
// applied through ExportDelta/ApplyDelta: crpd's
// state-file restore without the frame codec, which lives in
// internal/peering. Nothing has queried it, so its first snapshot()
// re-collects and re-sorts every shard: it is the always-re-collect
// reference the in-place patch path of src is checked against.
func restoredFrom(t testing.TB, src *Service, cfg StoreConfig, opts ...TrackerOption) *Service {
	t.Helper()
	dst := NewServiceWithStore(cfg, opts...)
	for i := 0; i < src.ShardCount(); i++ {
		metas, err := src.ShardMetas(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range metas {
			if d, ok := src.ExportDelta(m.Node); ok {
				if _, err := dst.ApplyDelta(d); err != nil {
					t.Fatalf("ApplyDelta(%s): %v", m.Node, err)
				}
			}
		}
	}
	return dst
}

// requireSameAnswers fails unless a and b hold the same nodes and rank and
// cluster them identically.
func requireSameAnswers(t *testing.T, a, b *Service) {
	t.Helper()
	na, nb := a.Nodes(), b.Nodes()
	if !reflect.DeepEqual(na, nb) {
		t.Fatalf("node sets diverge: %v vs %v", na, nb)
	}
	ra, err := a.TopK(na[0], nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.TopK(na[0], nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("TopK diverges:\n%+v\n%+v", ra, rb)
	}
	cfg := ClusterConfig{Threshold: DefaultThreshold, SecondPass: true}
	ca, err := a.ClusterAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.ClusterAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ca, cb) {
		t.Fatalf("clusters diverge:\n%+v\n%+v", ca, cb)
	}
}

// driveModesWorld runs one workload through every given service: 40 nodes
// observing replicas of the default namespace and two qualified ones, with
// queries between most mutations so each store patches its compiled
// sub-snapshots in place.
func driveModesWorld(t *testing.T, svcs ...*Service) {
	t.Helper()
	namespaces := []Namespace{DefaultNamespace, "cdnA", "cdnB"}
	at := time.Unix(0, 0)
	for i := 0; i < 120; i++ {
		node := NodeID(fmt.Sprintf("n-%03d", i%40))
		replica := Qualify(namespaces[i%3], ReplicaID(fmt.Sprintf("r%d", (i*7)%12)))
		for _, svc := range svcs {
			if err := svc.Observe(node, at.Add(time.Duration(i)*time.Second), replica); err != nil {
				t.Fatal(err)
			}
			if i%17 == 0 {
				continue
			}
			if _, err := svc.TopK(node, nil, 3); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestStoreModesAgree drives the same workload through the default sharded
// store and a single-shard store and requires identical answers — from each
// other and from a service restored from the final state, whose snapshot is
// re-collected from scratch.
func TestStoreModesAgree(t *testing.T) {
	sharded := NewService(WithWindow(10))
	single := NewServiceWithStore(StoreConfig{Shards: 1}, WithWindow(10))
	driveModesWorld(t, sharded, single)

	requireSameAnswers(t, sharded, single)
	requireSameAnswers(t, single, restoredFrom(t, single, StoreConfig{Shards: 1}, WithWindow(10)))
	requireSameAnswers(t, sharded, restoredFrom(t, sharded, StoreConfig{}, WithWindow(10)))
}

// TestOneScorerMatchesBruteForce pins the single scoring loop on a
// multi-shard service: the all-nodes snapshot path, the explicit-candidate
// path, the map-level rankBySimilarity and a brute-force sort over the map
// kernel agree exactly — same order, == on every similarity — under the
// plain, the fused and a namespace-scoped similarity.
func TestOneScorerMatchesBruteForce(t *testing.T) {
	plain := NewService(WithWindow(10))
	fused := NewService(WithWindow(10))
	if err := fused.EnableFusion(FusionConfig{}); err != nil {
		t.Fatal(err)
	}
	driveModesWorld(t, plain, fused)

	const client, ns = NodeID("n-007"), Namespace("cdnA")
	for _, tc := range []struct {
		name    string
		svc     *Service
		view    func(RatioMap) RatioMap // the maps the reference kernel sees
		ref     func(a, b RatioMap) float64
		topK    func(candidates []NodeID, k int) ([]Scored, error)
		mapRank bool // rankBySimilarity runs the plain kernel only
	}{
		{
			name: "plain", svc: plain, mapRank: true,
			view: func(m RatioMap) RatioMap { return m },
			ref:  CosineSimilarity,
			topK: func(c []NodeID, k int) ([]Scored, error) { return plain.TopK(client, c, k) },
		},
		{
			name: "fused", svc: fused,
			view: func(m RatioMap) RatioMap { return m },
			ref: func(a, b RatioMap) float64 {
				sim, err := fusedCosine(FusionConfig{}, a, b)
				if err != nil {
					t.Fatal(err)
				}
				return sim
			},
			topK: func(c []NodeID, k int) ([]Scored, error) { return fused.TopK(client, c, k) },
		},
		{
			name: "scoped", svc: plain, mapRank: true,
			view: func(m RatioMap) RatioMap { return m.NamespaceView(ns) },
			ref:  CosineSimilarity,
			topK: func(c []NodeID, k int) ([]Scored, error) { return plain.TopKIn(ns, client, c, k) },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			all := tc.svc.Nodes() // includes the client: exclusion is the scorer's job
			others := make(map[NodeID]RatioMap, len(all))
			var clientMap RatioMap
			for _, id := range all {
				m, err := tc.svc.RatioMap(id)
				if err != nil {
					t.Fatal(err)
				}
				if id == client {
					clientMap = tc.view(m)
				} else {
					others[id] = tc.view(m)
				}
			}
			n := len(others)
			if n < 30 || clientMap == nil {
				t.Fatalf("world too small: %d candidates, client known = %v", n, clientMap != nil)
			}
			want := make([]Scored, 0, n)
			for id, m := range others {
				want = append(want, Scored{Node: id, Similarity: tc.ref(clientMap, m)})
			}
			slices.SortFunc(want, scoredCmp)
			if tc.mapRank {
				if got := rankBySimilarity(clientMap, others); !slices.Equal(got, want) {
					t.Fatalf("rankBySimilarity diverges from brute force:\n%+v\n%+v", got, want)
				}
			}

			for _, row := range []struct {
				name       string
				candidates []NodeID
				k          int
				want       []Scored
			}{
				{"all nodes", nil, n, want},
				{"explicit list with the client in it", all, n, want},
				{"top 5 of all nodes", nil, 5, want[:5]},
				{"top 5 of the explicit list", all, 5, want[:5]},
				{"k beyond the candidate count", nil, 10 * n, want},
				{"k = 0", all, 0, nil},
				{"empty non-nil candidates", []NodeID{}, 5, nil},
			} {
				got, err := tc.topK(row.candidates, row.k)
				if err != nil {
					t.Fatalf("%s: %v", row.name, err)
				}
				if !slices.Equal(got, row.want) {
					t.Fatalf("%s:\n got %+v\nwant %+v", row.name, got, row.want)
				}
			}
		})
	}
}

// TestClusterVecsMatchesClusterSMF pins, on a fixed world of six replica
// groups, that clusterVecs — fed compiled vectors directly, and through the
// map-keyed clusterSMF helper — clusters exactly like the dense reference
// SMF.
func TestClusterVecsMatchesClusterSMF(t *testing.T) {
	nodes := make([]Node, 0, 60)
	vecs := make([]nodeVec, 0, 60)
	maps := make(map[NodeID]RatioMap, 60)
	for i := 0; i < 60; i++ {
		m := RatioMap{}
		for r := 0; r < 3; r++ {
			m[ReplicaID(fmt.Sprintf("g%d-r%d", i%6, r))] = float64(1 + (i+r)%4)
		}
		m = normalize(m)
		id := NodeID(fmt.Sprintf("n-%03d", i))
		nodes = append(nodes, Node{ID: id, Map: m})
		vecs = append(vecs, nodeVec{id: id, vec: compileRatioMap(m)})
		maps[id] = m
	}
	for _, cfg := range []ClusterConfig{
		{Threshold: DefaultThreshold},
		{Threshold: 0.5, SecondPass: true, Seed: 7},
		{Threshold: 0.99, SecondPass: true, Seed: 3},
		{Threshold: 0},
		{Threshold: 1, SecondPass: true},
	} {
		want := denseSMF(nodes, cfg, func(a, b NodeID) float64 { return mapCosine(maps[a], maps[b]) })
		viaMaps, err := clusterSMF(nodes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		viaVecs, err := clusterVecs(slices.Clone(vecs), cfg, plainCosine)
		if err != nil {
			t.Fatal(err)
		}
		if !sameClusters(viaMaps, want) || !sameClusters(viaVecs, want) {
			t.Fatalf("cfg %+v:\nclusterSMF  %v\nclusterVecs %v\nreference   %v", cfg, viaMaps, viaVecs, want)
		}
	}
}

// TestObserveRacingDelta races the interleaving gossip produces — an observe
// of a node and a superseding delta of the same node — on two goroutines
// released together, many times over on fresh stores. Whatever the
// interleaving, the store must end in a state some serial order of the two
// calls produces, listing and replication must agree on the nodes, and a peer
// fed the store's deltas must end byte-identical to it. Were the probe
// published on a tracker the delta already replaced, the record would match
// neither order.
func TestObserveRacingDelta(t *testing.T) {
	at := time.Unix(1000, 0)
	fresh := func(origin string) *Service {
		s := NewServiceWithStore(StoreConfig{Shards: 4}, WithWindow(8))
		s.SetOrigin(origin)
		return s
	}
	seeded := func() *Service {
		s := fresh("local")
		for _, n := range []NodeID{"known", "bystander"} {
			if err := s.Observe(n, at, "cdnA!r1", "cdnB!r1"); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}

	// The observe finds the node known (it advances a tracker) or unknown
	// (it creates one); the delta supersedes it either way.
	for _, row := range []struct {
		name string
		node NodeID
	}{{"observe-vs-delta", "known"}, {"first-observe-vs-delta", "unknown"}} {
		node := row.node
		t.Run(row.name, func(t *testing.T) {
			call := func(s *Service) {
				if err := s.Observe(node, at.Add(time.Minute), "cdnA!r2"); err != nil {
					t.Error(err)
				}
			}
			racer := func(s *Service) {
				d := NodeDelta{
					NodeMeta: NodeMeta{Node: node, Origin: "peer", Version: 5},
					Probes:   []Probe{{At: at.Add(2 * time.Second), Replicas: []ReplicaID{"cdnA!r7"}}},
				}
				if ok, err := s.ApplyDelta(d); err != nil || !ok {
					t.Errorf("superseding delta: ApplyDelta = %v, %v", ok, err)
				}
			}
			export := func(s *Service) NodeDelta {
				d, ok := s.ExportDelta(node)
				if !ok {
					t.Fatal("the node's record vanished")
				}
				return d
			}
			callFirst, racerFirst := seeded(), seeded()
			call(callFirst)
			racer(callFirst)
			racer(racerFirst)
			call(racerFirst)
			a, b := export(callFirst), export(racerFirst)

			for round := 0; round < 200; round++ {
				raced := seeded()
				start := make(chan struct{})
				var wg sync.WaitGroup
				for _, f := range []func(*Service){call, racer} {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						f(raced)
					}()
				}
				close(start)
				wg.Wait()
				if got := export(raced); !reflect.DeepEqual(got, a) && !reflect.DeepEqual(got, b) {
					t.Fatalf("round %d: raced record matches no serial order:\n raced        %+v\n call, racer  %+v\n racer, call  %+v", round, got, a, b)
				}
				requireDeltaFedCopy(t, raced, fresh("peer"))
			}
		})
	}
}

// requireDeltaFedCopy checks that listing and replication read one record —
// ShardMetas, ExportDelta and Nodes agree — and that peer, built from
// nothing but src's deltas, is its byte-identical copy, digests included.
func requireDeltaFedCopy(t *testing.T, src, peer *Service) {
	t.Helper()
	var listed []NodeID
	for i := 0; i < src.ShardCount(); i++ {
		metas, err := src.ShardMetas(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range metas {
			d, ok := src.ExportDelta(m.Node)
			if !ok || d.NodeMeta != m {
				t.Fatalf("ExportDelta(%q) = %+v, %v; ShardMetas lists %+v", m.Node, d.NodeMeta, ok, m)
			}
			listed = append(listed, m.Node)
			if len(d.Probes) == 0 {
				t.Errorf("entry %q exports no probes", m.Node)
			}
			if _, err := peer.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	slices.Sort(listed)
	if nodes := src.Nodes(); !slices.Equal(nodes, listed) {
		t.Errorf("Nodes() = %v, ShardMetas entries = %v", nodes, listed)
	}
	var want, have bytes.Buffer
	if err := src.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if err := peer.WriteSnapshot(&have); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), have.Bytes()) {
		t.Fatalf("peer fed the exported deltas diverges:\n store %s peer  %s", want.Bytes(), have.Bytes())
	}
	if !slices.Equal(src.ShardDigests(), peer.ShardDigests()) {
		t.Fatal("shard digests differ between the store and its delta-fed peer")
	}
}
