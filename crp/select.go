package crp

import (
	"slices"
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
// Each map is compiled to a sorted vector once. Scoring is the package's one
// goroutine fan-out: 64 or more candidates are scored across at most
// GOMAXPROCS workers (scoreVecs), and the returned ranking is deterministic
// regardless of parallelism.
func RankBySimilarity(client RatioMap, candidates map[NodeID]RatioMap) []Scored {
	cands := make([]nodeVec, 0, len(candidates))
	for id, m := range candidates {
		cands = append(cands, nodeVec{id: id, vec: compileRatioMap(m)})
	}
	out := make([]Scored, len(cands))
	scoreVecs(out, compileRatioMap(client), cands, plainCosine)
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

// scoreVecs is the one place a candidate is scored: it writes the
// similarity of client to cands[i] into scored[i] (len(cands) entries), in
// parallel for large sets. The reducers — a full sort in RankBySimilarity,
// the bounded heap in topSnap — run on a total order, so parallelism never
// shows in a result.
func scoreVecs(scored []Scored, client ratioVec, cands []nodeVec, sim simFunc) {
	parallelFor(len(cands), func(i int) {
		scored[i] = Scored{Node: cands[i].id, Similarity: sim(client, cands[i].vec)}
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

// topSnap scores cands and selects the k best without sorting the full set
// — O(n log k) selection instead of O(n log n), the difference between a
// Top-5 query and a full ranking at service scale. The candidate whose id
// equals exclude (the query client itself) is never returned. Candidate IDs
// are unique, so the result is ordered and deterministic (same total order
// as RankBySimilarity).
func topSnap(client ratioVec, cands []nodeVec, k int, exclude NodeID, sim simFunc) []Scored {
	if k <= 0 || len(cands) == 0 {
		return nil
	}
	buf := getScoredScratch(len(cands))
	defer scoredScratch.Put(buf)
	scoreVecs(*buf, client, cands, sim)
	return selectTop(*buf, k, exclude)
}

// unionScratch recycles topAll's per-query buffers: the client's replica
// keys, one part's matched indices and the gathered union. The union is
// cleared before it goes back, so a pooled buffer pins no vectors.
var unionScratch = sync.Pool{New: func() any { return new(unionBuf) }}

type unionBuf struct {
	keys, idx []uint32
	union     []nodeVec
}

// topAll is topSnap over every node of a store snapshot, scoring only the
// nodes that share a replica with the client. Every kernel returns exactly
// 0 for two vectors with no replica in common, so the others can only rank
// as zero-similarity nodes, in NodeID order: the union's ranking is
// completed with them by zeroFill, and the result equals topSnap's on the
// flattened snap element by element. The union is gathered from each part's
// postings; a key collision only adds nodes to it, and every union node is
// scored with the real kernel.
func topAll(client ratioVec, snap storeSnap, k int, exclude NodeID, sim simFunc) []Scored {
	if k <= 0 || snap.total == 0 {
		return nil
	}
	sc := unionScratch.Get().(*unionBuf)
	defer func() {
		clear(sc.union)
		sc.union = sc.union[:0]
		unionScratch.Put(sc)
	}()
	sc.keys = keysOf(sc.keys, client)
	for p, part := range snap.parts {
		sc.idx = snap.posts[p].union(sc.idx, sc.keys)
		for _, i := range sc.idx {
			sc.union = append(sc.union, part[i])
		}
	}
	svcMetrics.scanScored.Add(uint64(len(sc.union)))
	buf := getScoredScratch(len(sc.union))
	defer scoredScratch.Put(buf)
	scoreVecs(*buf, client, sc.union, sim)
	return zeroFill(selectTop(*buf, k, exclude), snap, k, exclude)
}

// zeroFill completes top, the union's ranking, to the ranking a full scan
// of snap gives: its nodes that scored above 0 stay in front, and the
// remaining slots up to k go to every other node of snap in NodeID order,
// skipping exclude — the scoredBetter order of a zero-similarity tail. The
// parts are each sorted, so the tail is a k-way merge over them, O((k + S)
// log S) for S parts; it runs only when fewer than k union nodes scored.
func zeroFill(top []Scored, snap storeSnap, k int, exclude NodeID) []Scored {
	scored := len(top)
	for scored > 0 && top[scored-1].Similarity == 0 {
		scored--
	}
	if scored == k {
		return top
	}
	placed := make([]NodeID, scored)
	for i := range placed {
		placed[i] = top[i].Node
	}
	slices.Sort(placed)
	out := make([]Scored, scored, min(k, snap.total))
	copy(out, top)

	// heads is a min-heap of one cursor per non-empty part, keyed on the
	// node ID under the cursor.
	type cursor struct{ part, at int }
	id := func(c cursor) NodeID { return snap.parts[c.part][c.at].id }
	heads := make([]cursor, 0, len(snap.parts))
	siftDown := func(i int) {
		for {
			l, r, least := 2*i+1, 2*i+2, i
			if l < len(heads) && id(heads[l]) < id(heads[least]) {
				least = l
			}
			if r < len(heads) && id(heads[r]) < id(heads[least]) {
				least = r
			}
			if least == i {
				return
			}
			heads[i], heads[least] = heads[least], heads[i]
			i = least
		}
	}
	for p, part := range snap.parts {
		if len(part) > 0 {
			heads = append(heads, cursor{part: p})
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(heads) > 0 && len(out) < k {
		node := id(heads[0])
		if heads[0].at++; heads[0].at == len(snap.parts[heads[0].part]) {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		siftDown(0)
		for len(placed) > 0 && placed[0] < node {
			placed = placed[1:]
		}
		if node == exclude || (len(placed) > 0 && placed[0] == node) {
			continue
		}
		out = append(out, Scored{Node: node})
	}
	return out
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
