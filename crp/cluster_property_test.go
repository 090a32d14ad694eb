package crp

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// nodesFromRaw builds a node set from fuzz bytes: each row becomes one node
// with up to 5 replica entries drawn from a small replica universe.
func nodesFromRaw(raw [][5]byte) []Node {
	nodes := make([]Node, 0, len(raw))
	for i, row := range raw {
		m := RatioMap{}
		for j, b := range row {
			if b == 0 {
				continue
			}
			m[ReplicaID(fmt.Sprintf("r%d", (int(b)+j)%7))] += float64(b)
		}
		nodes = append(nodes, Node{ID: NodeID(fmt.Sprintf("n%03d", i)), Map: normalize(m)})
	}
	return nodes
}

// TestClusterSMFIsPartition verifies, over arbitrary inputs, that SMF always
// produces an exact partition: every node in exactly one cluster, every
// cluster non-empty with its center among its members, no duplicated
// centers — with and without the second pass.
func TestClusterSMFIsPartition(t *testing.T) {
	check := func(raw [][5]byte, tByte uint8, secondPass bool) bool {
		nodes := nodesFromRaw(raw)
		clusters, err := clusterSMF(nodes, ClusterConfig{
			Threshold:  float64(tByte) / 255,
			SecondPass: secondPass,
			Seed:       int64(tByte),
		})
		if err != nil {
			return false
		}
		seen := map[NodeID]bool{}
		centers := map[NodeID]bool{}
		for _, c := range clusters {
			if c.Size() == 0 {
				return false
			}
			if centers[c.Center] {
				return false
			}
			centers[c.Center] = true
			centerIsMember := false
			for _, m := range c.Members {
				if seen[m] {
					return false
				}
				seen[m] = true
				if m == c.Center {
					centerIsMember = true
				}
			}
			if !centerIsMember {
				return false
			}
		}
		return len(seen) == len(nodes)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestClusterSMFMembersMeetThreshold verifies the SMF assignment rule: every
// non-center member of a multi-node first-pass cluster has cosine similarity
// to its center of at least the threshold.
func TestClusterSMFMembersMeetThreshold(t *testing.T) {
	check := func(raw [][5]byte, tByte uint8) bool {
		nodes := nodesFromRaw(raw)
		threshold := float64(tByte)/255*0.9 + 0.05
		clusters, err := clusterSMF(nodes, ClusterConfig{Threshold: threshold})
		if err != nil {
			return false
		}
		maps := map[NodeID]RatioMap{}
		for _, n := range nodes {
			maps[n.ID] = n.Map
		}
		for _, c := range clusters {
			for _, m := range c.Members {
				if m == c.Center {
					continue
				}
				if CosineSimilarity(maps[m], maps[c.Center]) < threshold {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTrackerRatioMapSumsToOne is the tracker's core invariant over
// arbitrary probe sequences.
func TestTrackerRatioMapSumsToOne(t *testing.T) {
	check := func(raw [][3]byte, window uint8) bool {
		tr := NewTracker(WithWindow(int(window % 16)))
		any := false
		for i, row := range raw {
			var replicas []ReplicaID
			for _, b := range row {
				if b != 0 {
					replicas = append(replicas, ReplicaID(fmt.Sprintf("r%d", b%9)))
				}
			}
			if len(replicas) == 0 {
				continue
			}
			any = true
			tr.Observe(t0.Add(timeMinutes(i)), replicas...)
		}
		m := tr.RatioMap()
		if !any {
			return len(m) == 0
		}
		return almostEqual(m.Sum(), 1, 1e-9)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// mapCosine is the reference map-based similarity path: Dot + two Norms,
// exactly the pre-compiled-kernel formulation of CosineSimilarity,
// including the zero handling and [0, 1] drift clamp.
func mapCosine(a, b RatioMap) float64 {
	dot := Dot(a, b)
	if dot == 0 {
		return 0
	}
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	sim := dot / (na * nb)
	if sim > 1 {
		return 1
	}
	if sim < 0 {
		return 0
	}
	return sim
}

// TestCompiledKernelMatchesMapCosine: the compiled-vector kernel must be
// bit-identical (==, not almost-equal) to the map-based Dot/Norm path on
// arbitrary ratio maps. Both accumulate in ascending replica order, so every
// intermediate float operation matches.
func TestCompiledKernelMatchesMapCosine(t *testing.T) {
	check := func(rawA, rawB [5]byte, denomA, denomB uint8) bool {
		mkMap := func(raw [5]byte, denom uint8) RatioMap {
			m := RatioMap{}
			for j, b := range raw {
				if b == 0 {
					continue
				}
				m[ReplicaID(fmt.Sprintf("r%d", (int(b)+j)%7))] += float64(b) / float64(int(denom)+1)
			}
			return m
		}
		a, b := mkMap(rawA, denomA), mkMap(rawB, denomB)
		want := mapCosine(a, b)
		if got := CosineSimilarity(a, b); got != want {
			return false
		}
		// And on the compiled representation directly.
		if got := compileRatioMap(a).cosine(compileRatioMap(b)); got != want {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestCompiledRankMatchesMapRank: rankBySimilarity (topSnap) through the
// compiled parallel kernel must return the exact Scored slice (order and float bits)
// the serial map-based path produces.
func TestCompiledRankMatchesMapRank(t *testing.T) {
	check := func(raw [][5]byte, clientRaw [5]byte) bool {
		nodes := nodesFromRaw(raw)
		candidates := make(map[NodeID]RatioMap, len(nodes))
		for _, n := range nodes {
			candidates[n.ID] = n.Map
		}
		client := RatioMap{}
		for j, b := range clientRaw {
			if b != 0 {
				client[ReplicaID(fmt.Sprintf("r%d", (int(b)+j)%7))] += float64(b)
			}
		}
		client = normalize(client)

		got := rankBySimilarity(client, candidates)

		// Serial map-based reference ranking.
		want := make([]Scored, 0, len(candidates))
		for id, m := range candidates {
			want = append(want, Scored{Node: id, Similarity: mapCosine(client, m)})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Similarity != want[j].Similarity {
				return want[i].Similarity > want[j].Similarity
			}
			return want[i].Node < want[j].Node
		})
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// dominant returns the replica with the highest ratio in m and that ratio,
// breaking ties toward the lexicographically smallest replica. An empty map
// yields ("", 0). It is the reference SMF's step 1 over maps.
func dominant(m RatioMap) (ReplicaID, float64) {
	var bestR ReplicaID
	bestF := -1.0
	for r, f := range m {
		if f > bestF || (f == bestF && r < bestR) {
			bestR, bestF = r, f
		}
	}
	if bestF < 0 {
		return "", 0
	}
	return bestR, bestF
}

// denseSMF is the reference SMF: the paper's three steps over ratio maps,
// keyed by NodeID, scoring every non-center against every center — O(N·C) —
// and every remaining singleton against every promoted center. It shares no
// code with clusterVecs beyond the types, and none with the posting index.
func denseSMF(nodes []Node, cfg ClusterConfig, sim func(a, b NodeID) float64) []Cluster {
	sorted := slices.Clone(nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })

	// Step 1: strongest mapping per replica server → centers.
	type strongest struct {
		node  NodeID
		ratio float64
	}
	best := make(map[ReplicaID]strongest)
	for _, n := range sorted {
		r, f := dominant(n.Map)
		if r == "" {
			continue
		}
		if cur, ok := best[r]; !ok || f > cur.ratio {
			best[r] = strongest{n.ID, f}
		}
	}
	isCenter := make(map[NodeID]bool, len(best))
	for _, s := range best {
		isCenter[s.node] = true
	}
	var centers []NodeID
	clusters := make(map[NodeID]*Cluster)
	for _, n := range sorted {
		if isCenter[n.ID] {
			centers = append(centers, n.ID)
			clusters[n.ID] = &Cluster{Center: n.ID, Members: []NodeID{n.ID}}
		}
	}

	// Step 2: every non-center against every center.
	var singletons []NodeID
	for _, n := range sorted {
		if isCenter[n.ID] {
			continue
		}
		bestCenter, bestSim := NodeID(""), 0.0
		for _, c := range centers {
			if s := sim(n.ID, c); s > bestSim ||
				(s == bestSim && s > 0 && (bestCenter == "" || c < bestCenter)) {
				bestCenter, bestSim = c, s
			}
		}
		if bestCenter != "" && bestSim >= cfg.Threshold && bestSim > 0 {
			clusters[bestCenter].Members = append(clusters[bestCenter].Members, n.ID)
		} else {
			singletons = append(singletons, n.ID)
		}
	}

	// Step 3: promote singletons in random order; each takes every remaining
	// singleton above t.
	if cfg.SecondPass {
		rng := rand.New(rand.NewPCG(uint64(cfg.Seed), 0x534d46))
		remaining := singletons
		singletons = nil
		for len(remaining) > 0 {
			i := rng.IntN(len(remaining))
			center := remaining[i]
			remaining = append(remaining[:i:i], remaining[i+1:]...)
			cl := &Cluster{Center: center, Members: []NodeID{center}}
			var kept []NodeID
			for _, id := range remaining {
				if s := sim(id, center); s >= cfg.Threshold && s > 0 {
					cl.Members = append(cl.Members, id)
				} else {
					kept = append(kept, id)
				}
			}
			remaining = kept
			clusters[center] = cl
		}
	}
	for _, id := range singletons {
		clusters[id] = &Cluster{Center: id, Members: []NodeID{id}}
	}

	out := make([]Cluster, 0, len(clusters))
	for _, cl := range clusters {
		sort.Slice(cl.Members, func(i, j int) bool { return cl.Members[i] < cl.Members[j] })
		out = append(out, *cl)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Members) != len(out[j].Members) {
			return len(out[i].Members) > len(out[j].Members)
		}
		return out[i].Center < out[j].Center
	})
	return out
}

// sameClusters reports whether two clusterings are the same list: the same
// centers with the same members, in the same order.
func sameClusters(a, b []Cluster) bool {
	return slices.EqualFunc(a, b, func(x, y Cluster) bool {
		return x.Center == y.Center && slices.Equal(x.Members, y.Members)
	})
}

// coarse maps fuzz bytes onto 0–3, so nodesFromRaw draws many zero entries
// and small equal weights: nodes with identical maps, and nodes equally
// similar to two centers, which exercise the tie rules.
func coarse(raw [][5]byte) [][5]byte {
	out := make([][5]byte, len(raw))
	for i, row := range raw {
		for j, b := range row {
			out[i][j] = b % 4
		}
	}
	return out
}

// smfConfigs are the configurations a property run checks for one drawn
// threshold byte: the drawn t in [0, 1] and both ends, with the drawn second
// pass and seed.
func smfConfigs(tByte uint8, secondPass bool, seed int64) []ClusterConfig {
	var out []ClusterConfig
	for _, t := range []float64{float64(tByte) / 255, 0, 1} {
		out = append(out, ClusterConfig{Threshold: t, SecondPass: secondPass, Seed: seed})
	}
	return out
}

// TestCompiledClusterMatchesMapCluster: clusterSMF, which scores each node
// only against the centers sharing a replica with it, must produce exactly
// the clustering of the dense reference SMF on the map-based cosine, across
// thresholds from 0 to 1, with and without the second pass, under any seed.
func TestCompiledClusterMatchesMapCluster(t *testing.T) {
	check := func(raw [][5]byte, tByte uint8, secondPass bool, seed int64) bool {
		for _, rows := range [][][5]byte{raw, coarse(raw)} {
			nodes := nodesFromRaw(rows)
			maps := make(map[NodeID]RatioMap, len(nodes))
			for _, n := range nodes {
				maps[n.ID] = n.Map
			}
			for _, cfg := range smfConfigs(tByte, secondPass, seed) {
				got, err := clusterSMF(nodes, cfg)
				if err != nil {
					t.Logf("cfg %+v: %v", cfg, err)
					return false
				}
				want := denseSMF(nodes, cfg, func(a, b NodeID) float64 { return mapCosine(maps[a], maps[b]) })
				if !sameClusters(got, want) {
					t.Logf("cfg %+v:\n got %v\nwant %v", cfg, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// serviceFromRaw feeds a service the nodes of nodesFromRaw's rows as probes:
// entry j of a row is 1 + b%3 probes of one replica, in namespace "a" for
// an odd byte and "mute" for an even one. The window keeps every probe.
func serviceFromRaw(t *testing.T, raw [][5]byte, fusion *FusionConfig) *Service {
	t.Helper()
	s := NewServiceWithStore(StoreConfig{Shards: 4}, WithWindow(0))
	if fusion != nil {
		if err := s.EnableFusion(*fusion); err != nil {
			t.Fatal(err)
		}
	}
	at := time.Unix(1000, 0)
	for i, row := range raw {
		for j, b := range row {
			if b == 0 {
				continue
			}
			ns := Namespace("mute")
			if b%2 == 1 {
				ns = "a"
			}
			r := Qualify(ns, ReplicaID(fmt.Sprintf("r%d", (int(b)+j)%7)))
			for k := 0; k <= int(b)%3; k++ {
				at = at.Add(time.Second)
				if err := s.Observe(NodeID(fmt.Sprintf("n%03d", i)), at, r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return s
}

// TestClusterAllMatchesDenseSMF: Service.ClusterAll, on the store's
// snapshot under the service's kernel, must cluster exactly like the dense
// reference SMF scoring with the same service's Similarity — under the plain
// cosine and under the fused kernel with one of the two namespaces weighted
// 0, so that some candidates sharing a replica score exactly 0.
func TestClusterAllMatchesDenseSMF(t *testing.T) {
	kernels := map[string]*FusionConfig{
		"plain": nil,
		"fused": {Weights: map[Namespace]float64{"mute": 0}},
	}
	for name, fusion := range kernels {
		t.Run(name, func(t *testing.T) {
			check := func(raw [][5]byte, tByte uint8, secondPass bool, seed int64) bool {
				for _, rows := range [][][5]byte{raw, coarse(raw)} {
					s := serviceFromRaw(t, rows, fusion)
					var nodes []Node
					for _, id := range s.Nodes() {
						m, err := s.RatioMap(id)
						if err != nil {
							t.Fatal(err)
						}
						nodes = append(nodes, Node{ID: id, Map: m})
					}
					sim := func(a, b NodeID) float64 {
						v, err := s.Similarity(a, b)
						if err != nil {
							t.Fatal(err)
						}
						return v
					}
					for _, cfg := range smfConfigs(tByte, secondPass, seed) {
						got, err := s.ClusterAll(cfg)
						if err != nil {
							t.Logf("cfg %+v: %v", cfg, err)
							return false
						}
						if want := denseSMF(nodes, cfg, sim); !sameClusters(got, want) {
							t.Logf("cfg %+v:\n got %v\nwant %v", cfg, got, want)
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
				t.Error(err)
			}
		})
	}
}
