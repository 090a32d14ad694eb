package crp

import (
	"slices"
	"sort"
	"sync"
)

// NodeID identifies a participating node (a client, server or peer) in a
// CRP deployment.
type NodeID string

// Scored is a candidate node with its cosine similarity to a reference node.
type Scored struct {
	Node       NodeID
	Similarity float64
}

// RankBySimilarity orders the candidate nodes by decreasing cosine
// similarity to the client's ratio map (§IV-A: the candidate most similar to
// the client is its likely-closest node). Ties break on NodeID so rankings
// are deterministic.
//
// Candidates with zero similarity are still ranked (last): the paper's
// semantics is that CRP cannot position them relative to the client, only
// report that they are unlikely to be near it. Callers that need to
// distinguish "closest" from "unknown" should inspect Similarity.
//
// Each map is compiled to a sorted vector once, and large candidate sets are
// scored across a bounded worker pool; the returned ranking is deterministic
// regardless of parallelism.
func RankBySimilarity(client RatioMap, candidates map[NodeID]RatioMap) []Scored {
	cands := make([]nodeVec, 0, len(candidates))
	for id, m := range candidates {
		cands = append(cands, nodeVec{id: id, vec: compileRatioMap(m)})
	}
	out := make([]Scored, len(cands))
	scoreSnap(out, compileRatioMap(client), snapOf(cands), plainCosine)
	slices.SortFunc(out, scoredCmp)
	return out
}

// scoredBetter reports whether a ranks strictly before b: higher similarity
// first, ties broken on NodeID. It is a total order, the source of every
// ranking's determinism.
func scoredBetter(a, b Scored) bool {
	if a.Similarity != b.Similarity {
		return a.Similarity > b.Similarity
	}
	return a.Node < b.Node
}

func scoredCmp(a, b Scored) int {
	if scoredBetter(a, b) {
		return -1
	}
	if scoredBetter(b, a) {
		return 1
	}
	return 0
}

// simFunc scores a client vector against a candidate vector. The query
// surface is parameterized over it so a fusion-enabled Service can swap the
// plain cosine for the fused multi-CDN kernel without forking the selection
// and clustering machinery; plainCosine is the default.
type simFunc = func(client, cand ratioVec) float64

// plainCosine is ratioVec.cosine as a simFunc.
var plainCosine simFunc = ratioVec.cosine

// scoreSnap is the one place a candidate is scored: it writes the similarity
// of client to every candidate of snap into scored (len snap.total), in
// parallel for large sets. It reads the per-shard parts without flattening
// them, so the "all known nodes" path adds no O(N) copy on top of the O(N)
// scoring pass; an explicit candidate list arrives as a one-part snap
// (snapOf). The reducers — a full sort in RankBySimilarity, the bounded heap
// in topSnap — run on a total order, so part layout and parallelism never
// show in a result.
func scoreSnap(scored []Scored, client ratioVec, snap storeSnap, sim simFunc) {
	// Flat index i maps to parts[p][i-starts[p]]; a binary search over at
	// most a few hundred offsets is noise next to one cosine.
	starts := make([]int, 0, len(snap.parts))
	off := 0
	for _, part := range snap.parts {
		starts = append(starts, off)
		off += len(part)
	}
	parallelFor(snap.total, func(i int) {
		p := sort.SearchInts(starts, i+1) - 1
		nv := snap.parts[p][i-starts[p]]
		scored[i] = Scored{Node: nv.id, Similarity: sim(client, nv.vec)}
	})
}

// scoredScratch recycles the O(N) scoring buffer behind topSnap. A Top-K
// query writes one Scored per candidate and keeps only k of them; at service
// scale that is megabytes of garbage per query, and under a
// query-per-few-milliseconds load the collector's assist work shows up
// directly in the query tail. The scratch slice never escapes: selectTop
// copies the k winners into its own heap before the buffer is recycled.
var scoredScratch = sync.Pool{New: func() any { return new([]Scored) }}

func getScoredScratch(n int) *[]Scored {
	buf := scoredScratch.Get().(*[]Scored)
	if cap(*buf) < n {
		*buf = make([]Scored, n)
	}
	*buf = (*buf)[:n]
	return buf
}

// topSnap scores snap's candidates and selects the k best without sorting
// the full set — O(n log k) selection instead of O(n log n), the difference
// between a Top-5 query and a full ranking at service scale. The candidate
// whose id equals exclude (the query client itself) is never returned.
// Candidate IDs are unique across parts, so the result is ordered and
// deterministic (same total order as RankBySimilarity).
func topSnap(client ratioVec, snap storeSnap, k int, exclude NodeID, sim simFunc) []Scored {
	if k <= 0 || snap.total == 0 {
		return nil
	}
	buf := getScoredScratch(snap.total)
	defer scoredScratch.Put(buf)
	scoreSnap(*buf, client, snap, sim)
	return selectTop(*buf, k, exclude)
}

// selectTop reduces a scored slice to its k best entries in ranking order,
// skipping the excluded node.
func selectTop(scored []Scored, k int, exclude NodeID) []Scored {
	// Bounded min-heap of the k best seen: heap[0] is the worst kept, so a
	// new candidate only enters by beating it.
	heap := make([]Scored, 0, min(k, len(scored)))
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			worst := i
			if l < len(heap) && scoredBetter(heap[worst], heap[l]) {
				worst = l
			}
			if r < len(heap) && scoredBetter(heap[worst], heap[r]) {
				worst = r
			}
			if worst == i {
				return
			}
			heap[i], heap[worst] = heap[worst], heap[i]
			i = worst
		}
	}
	for _, s := range scored {
		if s.Node == exclude {
			continue
		}
		if len(heap) < k {
			heap = append(heap, s)
			// Sift up: the worst kept candidate belongs at the root.
			for i := len(heap) - 1; i > 0; {
				parent := (i - 1) / 2
				if !scoredBetter(heap[parent], heap[i]) {
					break
				}
				heap[i], heap[parent] = heap[parent], heap[i]
				i = parent
			}
			continue
		}
		if scoredBetter(s, heap[0]) {
			heap[0] = s
			siftDown(0)
		}
	}
	slices.SortFunc(heap, scoredCmp)
	return heap
}

// TopK returns the k candidates most similar to the client (all of them if
// k exceeds the candidate count; none if k <= 0).
func TopK(client RatioMap, candidates map[NodeID]RatioMap, k int) []Scored {
	if k <= 0 {
		return nil
	}
	ranked := RankBySimilarity(client, candidates)
	if k > len(ranked) {
		k = len(ranked)
	}
	return ranked[:k]
}

// SelectClosest returns the candidate with the highest cosine similarity to
// the client. ok is false when there are no candidates or when every
// candidate has zero similarity — the case where CRP has no positioning
// information for this client at all.
func SelectClosest(client RatioMap, candidates map[NodeID]RatioMap) (best Scored, ok bool) {
	ranked := RankBySimilarity(client, candidates)
	return bestOf(ranked)
}

// bestOf extracts the SelectClosest result from a ranking.
func bestOf(ranked []Scored) (best Scored, ok bool) {
	if len(ranked) == 0 || ranked[0].Similarity == 0 {
		if len(ranked) > 0 {
			return ranked[0], false
		}
		return Scored{}, false
	}
	return ranked[0], true
}
