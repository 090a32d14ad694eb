package crp

import "math"

// ratioVec is the compiled form of a RatioMap: replica IDs sorted ascending,
// a parallel slice of their ratios, and the precomputed Euclidean norm. It
// exists because every similarity query reduces to cosine similarity, and
// the map representation pays three sorts per call (Dot plus two Norms, each
// via Replicas). Compiling once amortizes the sort, and the merge-join
// kernel below makes each subsequent cosine allocation-free.
//
// A ratioVec is immutable after compileRatioMap returns; it may be shared
// freely across goroutines without copying.
type ratioVec struct {
	ids  []ReplicaID
	vals []float64
	norm float64
}

// compileRatioMap sorts m once and precomputes its norm. The norm
// accumulates in ascending replica order — the same deterministic order
// RatioMap.Norm uses — so compiled and map-based similarities are
// bit-identical.
func compileRatioMap(m RatioMap) ratioVec {
	ids := m.Replicas()
	vals := make([]float64, len(ids))
	s := 0.0
	for i, r := range ids {
		v := m[r]
		vals[i] = v
		s += v * v
	}
	return ratioVec{ids: ids, vals: vals, norm: math.Sqrt(s)}
}

// ratioMap materialises the vector as a freshly allocated RatioMap — the
// one way back from the compiled form to the API-edge map.
func (a ratioVec) ratioMap() RatioMap {
	m := make(RatioMap, len(a.ids))
	for i, id := range a.ids {
		m[id] = a.vals[i]
	}
	return m
}

// dot is the merge-join dot product of two compiled vectors. Matched terms
// accumulate in ascending replica order — the same order the map-based Dot
// visits them (it walks the smaller map's sorted replicas) — so the result
// is bit-identical to Dot on the source maps.
func (a ratioVec) dot(b ratioVec) float64 {
	s := 0.0
	i, j := 0, 0
	for i < len(a.ids) && j < len(b.ids) {
		switch {
		case a.ids[i] < b.ids[j]:
			i++
		case a.ids[i] > b.ids[j]:
			j++
		default:
			s += a.vals[i] * b.vals[j]
			i++
			j++
		}
	}
	return s
}

// cosine returns the cosine similarity of two compiled vectors on [0, 1],
// with the same zero-handling and drift clamping as CosineSimilarity. It
// performs no allocation.
func (a ratioVec) cosine(b ratioVec) float64 {
	dot := a.dot(b)
	if dot == 0 {
		return 0
	}
	if a.norm == 0 || b.norm == 0 {
		return 0
	}
	sim := dot / (a.norm * b.norm)
	if sim > 1 {
		return 1
	}
	if sim < 0 {
		return 0
	}
	return sim
}

// nodeVec couples a node identity with its compiled ratio vector, the
// working representation of a candidate inside the query and clustering
// paths.
type nodeVec struct {
	id  NodeID
	vec ratioVec
}
