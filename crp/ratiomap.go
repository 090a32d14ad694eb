package crp

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// ReplicaID identifies a CDN replica server, typically its hostname or IP
// address as observed in DNS answers.
type ReplicaID string

// RatioMap is a node's redirection frequency map ν_N: for each replica
// server the node has been redirected to, the fraction of redirections that
// went to it. A well-formed ratio map is non-negative and sums to 1, but the
// similarity functions only require non-negative entries.
type RatioMap map[ReplicaID]float64

// Clone returns an independent copy of the map.
func (m RatioMap) Clone() RatioMap {
	out := make(RatioMap, len(m))
	for r, f := range m {
		out[r] = f
	}
	return out
}

// Sum returns the total of all ratios. Accumulation follows the sorted
// replica order so results are bit-for-bit reproducible across runs (Go
// randomizes map iteration, and float addition is not associative).
func (m RatioMap) Sum() float64 {
	s := 0.0
	for _, r := range m.Replicas() {
		s += m[r]
	}
	return s
}

// Norm returns the Euclidean norm of the map viewed as a vector, with the
// same deterministic accumulation order as Sum.
func (m RatioMap) Norm() float64 {
	s := 0.0
	for _, r := range m.Replicas() {
		s += m[r] * m[r]
	}
	return math.Sqrt(s)
}

// Replicas returns the replica servers in the map, sorted for stable output.
func (m RatioMap) Replicas() []ReplicaID {
	out := make([]ReplicaID, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}

// String renders the map in the paper's ⟨r ⇒ f, …⟩ notation with stable
// ordering.
func (m RatioMap) String() string {
	var sb strings.Builder
	sb.WriteString("⟨")
	for i, r := range m.Replicas() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s ⇒ %.3f", string(r), m[r])
	}
	sb.WriteString("⟩")
	return sb.String()
}

// Dot returns the dot product of two ratio maps. A zero dot product means
// the hosts share no replica servers, the case where CRP can only report
// "not near one another". Accumulation follows the smaller map's sorted
// replica order for bit-for-bit reproducibility.
func Dot(a, b RatioMap) float64 {
	// Iterate over the smaller map.
	if len(b) < len(a) {
		a, b = b, a
	}
	s := 0.0
	for _, r := range a.Replicas() {
		if fb, ok := b[r]; ok {
			s += a[r] * fb
		}
	}
	return s
}

// CosineSimilarity returns the cosine similarity of two ratio maps on
// [0, 1]: 1 for identical direction, 0 for orthogonal maps (no shared
// replicas) or when either map is empty. This is the paper's relative
// distance metric (§III-B):
//
//	cos_sim(A,B) = Σ ν_A,i·ν_B,i / sqrt(Σ ν_A,i² · Σ ν_B,i²)
//
// This one-shot form keeps the Dot early-out: disjoint maps (the common
// case when scoring across metros) cost a single sort and no norm work.
// The many-pair paths — RankBySimilarity, ClusterSMF, the Service queries —
// instead compile each map once to a sorted vector and run the allocation-
// free merge-join kernel in ratiovec.go; both kernels accumulate in
// ascending replica order and are bit-identical.
func CosineSimilarity(a, b RatioMap) float64 {
	dot := Dot(a, b)
	if dot == 0 {
		return 0
	}
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	sim := dot / (na * nb)
	// Guard against floating-point drift outside [0, 1].
	if sim > 1 {
		return 1
	}
	if sim < 0 {
		return 0
	}
	return sim
}

// JaccardSimilarity returns |A∩B| / |A∪B| over the replica *sets* of two
// ratio maps, ignoring frequencies. It is not part of the paper's design;
// it exists as an ablation baseline to quantify how much the frequency
// weighting in cosine similarity contributes.
func JaccardSimilarity(a, b RatioMap) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(b) < len(a) {
		a, b = b, a
	}
	inter := 0
	for r := range a {
		if _, ok := b[r]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// OverlapCount returns the number of replica servers two maps share — the
// crudest similarity signal, used as an ablation baseline.
func OverlapCount(a, b RatioMap) int {
	if len(b) < len(a) {
		a, b = b, a
	}
	n := 0
	for r := range a {
		if _, ok := b[r]; ok {
			n++
		}
	}
	return n
}
