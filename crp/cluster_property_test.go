package crp

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
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
		clusters, err := ClusterSMF(nodes, ClusterConfig{
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
		clusters, err := ClusterSMF(nodes, ClusterConfig{Threshold: threshold})
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

// TestCompiledRankMatchesMapRank: RankBySimilarity through the compiled
// parallel kernel must return the exact Scored slice (order and float bits)
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

		got := RankBySimilarity(client, candidates)

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

// TestCompiledClusterMatchesMapCluster: ClusterSMF on the compiled kernel
// must produce exactly the clustering the map-based similarity path
// produces, across thresholds and with and without the second pass.
func TestCompiledClusterMatchesMapCluster(t *testing.T) {
	check := func(raw [][5]byte, tByte uint8, secondPass bool) bool {
		nodes := nodesFromRaw(raw)
		cfg := ClusterConfig{
			Threshold:  float64(tByte) / 255,
			SecondPass: secondPass,
			Seed:       int64(tByte),
		}
		got, errGot := ClusterSMF(nodes, cfg)
		maps := make(map[NodeID]RatioMap, len(nodes))
		for _, n := range nodes {
			maps[n.ID] = n.Map
		}
		want, errWant := clusterSMF(nodes, cfg, func(a, b NodeID) float64 {
			return mapCosine(maps[a], maps[b])
		})
		if (errGot == nil) != (errWant == nil) {
			return false
		}
		if errGot != nil {
			return true
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Center != want[i].Center || len(got[i].Members) != len(want[i].Members) {
				return false
			}
			for j := range got[i].Members {
				if got[i].Members[j] != want[i].Members[j] {
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
