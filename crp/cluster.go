package crp

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
)

// Node couples a node identity with its redirection ratio map, as input to
// clustering.
type Node struct {
	ID  NodeID
	Map RatioMap
}

// Cluster is a group of nodes believed to be mutually nearby. Members
// includes the center.
type Cluster struct {
	Center  NodeID
	Members []NodeID
}

// Size returns the number of members (including the center).
func (c Cluster) Size() int { return len(c.Members) }

// ClusterConfig parameterizes ClusterSMF.
type ClusterConfig struct {
	// Threshold is the minimum cosine similarity t for a node to join a
	// cluster. The paper studies t ∈ {0.01, 0.1, 0.5} and settles on 0.1.
	Threshold float64
	// SecondPass enables the optional pass that promotes unclustered nodes
	// to centers and groups the remaining singletons around them.
	SecondPass bool
	// Seed drives the second pass's random choice of singleton centers.
	Seed int64
}

// DefaultThreshold is the similarity threshold the paper selects (t = 0.1).
const DefaultThreshold = 0.1

// ClusterSMF clusters nodes with the paper's Strongest Mappings First
// algorithm (§V-B):
//
//  1. Cluster centers are the nodes with the strongest mappings to replica
//     servers: for every replica server, among the nodes whose dominant
//     (highest-ratio) replica it is, the node with the highest such ratio
//     becomes a center. Centers therefore emerge from the data and no
//     target cluster count is needed — the reason the paper rejects k-means.
//  2. Every remaining node is assigned to the center with the largest
//     cosine similarity if that similarity is at least Threshold; otherwise
//     it forms its own singleton cluster.
//  3. Optionally (SecondPass), unclustered nodes are promoted to centers in
//     random order and remaining singletons with similarity ≥ Threshold
//     join them.
//
// The returned clusters are sorted by decreasing size, then center ID.
// Singleton clusters are included; Summarize and the paper's accounting
// treat only clusters of size ≥ 2 as "clustered" nodes.
//
// Every ratio map is compiled to a sorted vector once, and a node is scored
// only against the centers that share a replica with it: a center sharing
// none has similarity exactly 0 and can never win. The clustering runs on
// the calling goroutine.
func ClusterSMF(nodes []Node, cfg ClusterConfig) ([]Cluster, error) {
	seen := make(map[NodeID]bool, len(nodes))
	vecs := make([]nodeVec, len(nodes))
	for i, n := range nodes {
		if n.ID == "" {
			return nil, errors.New("crp: node with empty ID")
		}
		if seen[n.ID] {
			return nil, fmt.Errorf("crp: duplicate node ID %q", n.ID)
		}
		seen[n.ID] = true
		vecs[i] = nodeVec{id: n.ID, vec: compileRatioMap(n.Map)}
	}
	return clusterVecs(vecs, cfg, plainCosine)
}

// clusterVecs is the one SMF: ClusterSMF runs it on compiled maps with the
// plain cosine, Service.ClusterAll on a flattened store snapshot with the
// service's kernel. The caller guarantees unique, non-empty IDs; vecs is
// reordered in place.
//
// Steps 2 and 3 score a node only against the centers that share a replica
// with it, found through a posting index over the centers' vectors (the
// store's CSR, see postings). Every kernel returns exactly 0 for two vectors
// with no replica in common, and a 0 can neither win a node nor pass s > 0,
// so the result is the dense O(N·C) SMF's exactly. A key collision only
// adds a candidate, which the kernel then scores.
func clusterVecs(vecs []nodeVec, cfg ClusterConfig, sim simFunc) ([]Cluster, error) {
	if t := cfg.Threshold; !(t >= 0 && t <= 1) {
		return nil, fmt.Errorf("crp: threshold %v outside [0,1]", t)
	}
	slices.SortFunc(vecs, func(a, b nodeVec) int { return cmp.Compare(a.id, b.id) })
	joins := func(s float64) bool { return s >= cfg.Threshold && s > 0 }

	// owner[i] is the index of node i's cluster center, -1 while node i is
	// unassigned. Indices are positions in vecs, so they order like IDs.
	owner := make([]int, len(vecs))

	// Step 1: strongest mapping per replica server → centers. A tie keeps
	// the node with the smaller ID.
	type strongest struct {
		node  int
		ratio float64
	}
	best := make(map[ReplicaID]strongest)
	for i, nv := range vecs {
		owner[i] = -1
		r, f := dominantVec(nv.vec)
		if r == "" {
			continue // empty map: cannot be a center
		}
		if cur, ok := best[r]; !ok || f > cur.ratio {
			best[r] = strongest{i, f}
		}
	}
	for _, s := range best {
		owner[s.node] = s.node
	}
	var centers []int
	for i := range vecs {
		if owner[i] == i {
			centers = append(centers, i)
		}
	}

	sc := postScratch.Get().(*postBuf)
	defer postScratch.Put(sc)
	var keys, idx []uint32

	// Step 2: assign each non-center to the most similar center above t.
	post := sc.build(pick(vecs, centers))
	var singles []int
	for i, nv := range vecs {
		if owner[i] >= 0 {
			continue
		}
		keys = keysOf(keys, nv.vec)
		idx = post.union(idx, keys)
		bestC, bestSim := -1, 0.0
		for _, ci := range idx {
			c := centers[ci]
			if s := sim(nv.vec, vecs[c].vec); s > bestSim || (s == bestSim && s > 0 && c < bestC) {
				bestC, bestSim = c, s
			}
		}
		if joins(bestSim) { // s > 0, so bestC is set
			owner[i] = bestC
		} else {
			singles = append(singles, i)
		}
	}

	// Step 3: optional second pass over the singletons. Each promoted center
	// scores the remaining singletons that share a replica with it.
	if cfg.SecondPass {
		rng := rand.New(rand.NewPCG(uint64(cfg.Seed), 0x534d46))
		post = sc.build(pick(vecs, singles))
		remaining := slices.Clone(singles)
		for len(remaining) > 0 {
			// Pick a random unclustered node as a new center.
			k := rng.IntN(len(remaining))
			c := remaining[k]
			remaining = slices.Delete(remaining, k, k+1)
			owner[c] = c
			keys = keysOf(keys, vecs[c].vec)
			idx = post.union(idx, keys)
			joined := false
			for _, j := range idx {
				if i := singles[j]; owner[i] < 0 && joins(sim(vecs[i].vec, vecs[c].vec)) {
					owner[i], joined = c, true
				}
			}
			if joined {
				remaining = slices.DeleteFunc(remaining, func(i int) bool { return owner[i] >= 0 })
			}
		}
	}

	// Lay the clusters out over one members array. Every unassigned node is
	// its own singleton, and a cluster's members arrive in ascending ID
	// order because i ascends.
	size := make([]int, len(vecs))
	for i, o := range owner {
		if o < 0 {
			owner[i] = i
		}
		size[owner[i]]++
	}
	members := make([]NodeID, len(vecs))
	slot := make([]int, len(vecs)) // node i's center's index in out
	var out []Cluster
	at := 0
	for i, nv := range vecs {
		if owner[i] == i {
			slot[i] = len(out)
			out = append(out, Cluster{Center: nv.id, Members: members[at : at : at+size[i]]})
			at += size[i]
		}
	}
	for i, o := range owner {
		cl := &out[slot[o]]
		cl.Members = append(cl.Members, vecs[i].id)
	}
	slices.SortFunc(out, func(a, b Cluster) int {
		if c := cmp.Compare(len(b.Members), len(a.Members)); c != 0 {
			return c
		}
		return cmp.Compare(a.Center, b.Center)
	})
	return out, nil
}

// pick copies vecs[at[0]], vecs[at[1]], … into a new slice, so a posting
// index built over it lists position j for vecs[at[j]].
func pick(vecs []nodeVec, at []int) []nodeVec {
	out := make([]nodeVec, len(at))
	for j, i := range at {
		out[j] = vecs[i]
	}
	return out
}

// dominantVec returns the replica with the highest ratio in v and that
// ratio, breaking ties toward the smallest replica ID: the IDs ascend, so
// the first strict maximum wins. An empty vector yields ("", 0).
func dominantVec(v ratioVec) (ReplicaID, float64) {
	if len(v.ids) == 0 {
		return "", 0
	}
	bestI := 0
	for i := 1; i < len(v.vals); i++ {
		if v.vals[i] > v.vals[bestI] {
			bestI = i
		}
	}
	return v.ids[bestI], v.vals[bestI]
}
