package crp

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
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
// Every ratio map is compiled to a sorted vector once up front, and the
// center-assignment pass fans out across a bounded worker pool; the
// clustering is deterministic regardless of parallelism.
func ClusterSMF(nodes []Node, cfg ClusterConfig) ([]Cluster, error) {
	return clusterSMF(nodes, cfg, nil)
}

// clusterSMF implements ClusterSMF with an injectable similarity function.
// A nil sim uses the compiled-vector kernel; tests inject the map-based
// CosineSimilarity path to assert both kernels cluster identically.
func clusterSMF(nodes []Node, cfg ClusterConfig, sim func(a, b NodeID) float64) ([]Cluster, error) {
	if cfg.Threshold < 0 || cfg.Threshold > 1 {
		return nil, fmt.Errorf("crp: threshold %v outside [0,1]", cfg.Threshold)
	}
	seen := make(map[NodeID]bool, len(nodes))
	for _, n := range nodes {
		if n.ID == "" {
			return nil, errors.New("crp: node with empty ID")
		}
		if seen[n.ID] {
			return nil, fmt.Errorf("crp: duplicate node ID %q", n.ID)
		}
		seen[n.ID] = true
	}

	// Work on a sorted copy for determinism.
	sorted := make([]Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })

	d := clusterData{
		ids:  make([]NodeID, len(sorted)),
		domR: make([]ReplicaID, len(sorted)),
		domF: make([]float64, len(sorted)),
	}
	for i, n := range sorted {
		d.ids[i] = n.ID
		d.domR[i], d.domF[i] = dominant(n.Map)
	}

	// simIdx scores sorted[i] against sorted[j] by index — the O(N·C)
	// assignment loop must not pay two map lookups per pair. The compiled
	// kernel backs it unless a map-based sim was injected.
	if sim == nil {
		// Compile every map once; all O(N·C) similarity work below runs on
		// the allocation-free merge-join kernel.
		vecs := make(map[NodeID]ratioVec, len(sorted))
		compiled := make([]ratioVec, len(sorted))
		parallelFor(len(sorted), func(i int) {
			compiled[i] = compileRatioMap(sorted[i].Map)
		})
		for i, n := range sorted {
			vecs[n.ID] = compiled[i]
		}
		d.sim = func(a, b NodeID) float64 { return vecs[a].cosine(vecs[b]) }
		d.simIdx = func(i, j int) float64 { return compiled[i].cosine(compiled[j]) }
	} else {
		d.sim = sim
		d.simIdx = func(i, j int) float64 { return sim(sorted[i].ID, sorted[j].ID) }
	}
	return clusterCore(d, cfg), nil
}

// clusterVecsSim is the Service's SMF entry point: it clusters pre-compiled
// candidate vectors (a flattened store snapshot) directly, skipping the
// per-node ratio-map clones and recompilation the []Node path pays. The
// caller guarantees unique, non-empty IDs — the store's invariant. The
// input slice is reordered in place. sim is the vector-similarity kernel —
// the seam a fusion-enabled Service routes its SMF queries through.
func clusterVecsSim(vecs []nodeVec, cfg ClusterConfig, sim simFunc) ([]Cluster, error) {
	if cfg.Threshold < 0 || cfg.Threshold > 1 {
		return nil, fmt.Errorf("crp: threshold %v outside [0,1]", cfg.Threshold)
	}
	sort.Slice(vecs, func(i, j int) bool { return vecs[i].id < vecs[j].id })
	d := clusterData{
		ids:  make([]NodeID, len(vecs)),
		domR: make([]ReplicaID, len(vecs)),
		domF: make([]float64, len(vecs)),
	}
	byID := make(map[NodeID]ratioVec, len(vecs))
	for i, nv := range vecs {
		d.ids[i] = nv.id
		d.domR[i], d.domF[i] = dominantVec(nv.vec)
		byID[nv.id] = nv.vec
	}
	d.sim = func(a, b NodeID) float64 { return sim(byID[a], byID[b]) }
	d.simIdx = func(i, j int) float64 { return sim(vecs[i].vec, vecs[j].vec) }
	return clusterCore(d, cfg), nil
}

// clusterData is the per-node input to clusterCore: IDs in ascending order,
// each node's dominant replica and ratio, and the similarity kernels (by
// sorted index for the O(N·C) assignment loop, by ID for the second pass).
type clusterData struct {
	ids    []NodeID
	domR   []ReplicaID // "" when the node's map is empty
	domF   []float64
	simIdx func(i, j int) float64
	sim    func(a, b NodeID) float64
}

// clusterCore runs SMF steps 1–3 over prepared clusterData. Both the
// map-based and compiled-vector front ends feed it, so the two paths cluster
// identically by construction.
func clusterCore(d clusterData, cfg ClusterConfig) []Cluster {
	sorted := d.ids
	sim, simIdx := d.sim, d.simIdx

	// Step 1: strongest mapping per replica server → centers.
	type strongest struct {
		node  NodeID
		ratio float64
	}
	best := make(map[ReplicaID]strongest)
	for i, id := range sorted {
		r, f := d.domR[i], d.domF[i]
		if r == "" {
			continue // empty map: cannot be a center
		}
		if cur, ok := best[r]; !ok || f > cur.ratio {
			best[r] = strongest{id, f}
		}
	}
	isCenter := make(map[NodeID]bool, len(best))
	for _, s := range best {
		isCenter[s.node] = true
	}

	var centers []NodeID
	var centerIdx []int // index into sorted, parallel to centers
	for i, id := range sorted {
		if isCenter[id] {
			centers = append(centers, id)
			centerIdx = append(centerIdx, i)
		}
	}

	clusters := make(map[NodeID]*Cluster, len(centers))
	for _, c := range centers {
		clusters[c] = &Cluster{Center: c, Members: []NodeID{c}}
	}

	// Step 2: assign non-centers to the most similar center above t. Each
	// node's best center is independent of the others, so the scan fans out
	// across the worker pool into a pre-sized result slice; the serial
	// stitch-up below preserves the sorted-order member append.
	type assignment struct {
		center NodeID
		sim    float64
	}
	assigned := make([]assignment, len(sorted))
	parallelFor(len(sorted), func(i int) {
		if isCenter[sorted[i]] {
			return
		}
		bestCenter, bestSim := NodeID(""), 0.0
		for ci, c := range centers {
			if s := simIdx(i, centerIdx[ci]); s > bestSim ||
				(s == bestSim && s > 0 && (bestCenter == "" || c < bestCenter)) {
				bestCenter, bestSim = c, s
			}
		}
		assigned[i] = assignment{center: bestCenter, sim: bestSim}
	})
	var singletons []NodeID
	for i, id := range sorted {
		if isCenter[id] {
			continue
		}
		a := assigned[i]
		if a.center != "" && a.sim >= cfg.Threshold && a.sim > 0 {
			cl := clusters[a.center]
			cl.Members = append(cl.Members, id)
		} else {
			singletons = append(singletons, id)
		}
	}

	// Step 3: optional second pass over the singletons.
	if cfg.SecondPass && len(singletons) > 1 {
		rng := rand.New(rand.NewPCG(uint64(cfg.Seed), 0x534d46))
		remaining := append([]NodeID(nil), singletons...)
		singletons = singletons[:0]
		for len(remaining) > 0 {
			// Pick a random unclustered node as a new center.
			i := rng.IntN(len(remaining))
			center := remaining[i]
			remaining = append(remaining[:i], remaining[i+1:]...)
			cl := &Cluster{Center: center, Members: []NodeID{center}}
			kept := remaining[:0]
			for _, id := range remaining {
				if s := sim(id, center); s >= cfg.Threshold && s > 0 {
					cl.Members = append(cl.Members, id)
				} else {
					kept = append(kept, id)
				}
			}
			remaining = kept
			clusters[center] = cl
			centers = append(centers, center)
		}
	} else {
		for _, id := range singletons {
			clusters[id] = &Cluster{Center: id, Members: []NodeID{id}}
			centers = append(centers, id)
		}
		singletons = nil
	}
	for _, id := range singletons {
		clusters[id] = &Cluster{Center: id, Members: []NodeID{id}}
		centers = append(centers, id)
	}

	out := make([]Cluster, 0, len(clusters))
	for _, c := range centers {
		cl := clusters[c]
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

// dominant returns the replica with the highest ratio in m and that ratio,
// breaking ties toward the lexicographically smallest replica for
// determinism. An empty map yields ("", 0).
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

// dominantVec is dominant over a compiled vector. The IDs are sorted
// ascending, so keeping the first strict maximum reproduces dominant's
// smallest-replica tie-break exactly; the values are the same floats the
// source map holds, so the two paths agree bit for bit.
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
