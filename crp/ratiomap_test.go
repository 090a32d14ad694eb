package crp

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// TestPaperWorkedExample reproduces the paper's §IV-A example exactly:
// ν_A = ⟨rx ⇒ 0.2, ry ⇒ 0.8⟩, ν_B = ⟨rx ⇒ 0.6, ry ⇒ 0.4⟩,
// ν_C = ⟨rx ⇒ 0.1, ry ⇒ 0.9⟩, giving cos_sim(A,B) = 0.740 and
// cos_sim(A,C) = 0.991, so A selects server C.
func TestPaperWorkedExample(t *testing.T) {
	a := RatioMap{"rx": 0.2, "ry": 0.8}
	b := RatioMap{"rx": 0.6, "ry": 0.4}
	c := RatioMap{"rx": 0.1, "ry": 0.9}

	if got := CosineSimilarity(a, b); !almostEqual(got, 0.740, 0.0005) {
		t.Errorf("cos_sim(A,B) = %.4f, want 0.740", got)
	}
	if got := CosineSimilarity(a, c); !almostEqual(got, 0.991, 0.0005) {
		t.Errorf("cos_sim(A,C) = %.4f, want 0.991", got)
	}
	best, ok := SelectClosest(a, map[NodeID]RatioMap{"B": b, "C": c})
	if !ok || best.Node != "C" {
		t.Errorf("SelectClosest = %+v, ok=%v; want C", best, ok)
	}
}

func TestCosineSimilarityIdentical(t *testing.T) {
	m := RatioMap{"r1": 0.3, "r2": 0.7}
	if got := CosineSimilarity(m, m); !almostEqual(got, 1, 1e-12) {
		t.Errorf("cos_sim(m,m) = %v, want 1", got)
	}
	// Scaled copies point in the same direction.
	scaled := RatioMap{"r1": 0.6, "r2": 1.4}
	if got := CosineSimilarity(m, scaled); !almostEqual(got, 1, 1e-12) {
		t.Errorf("cos_sim(m, 2m) = %v, want 1", got)
	}
}

func TestCosineSimilarityOrthogonal(t *testing.T) {
	a := RatioMap{"r1": 1}
	b := RatioMap{"r2": 1}
	if got := CosineSimilarity(a, b); got != 0 {
		t.Errorf("cos_sim of disjoint maps = %v, want 0", got)
	}
}

func TestCosineSimilarityEmpty(t *testing.T) {
	m := RatioMap{"r1": 1}
	if got := CosineSimilarity(m, RatioMap{}); got != 0 {
		t.Errorf("cos_sim with empty map = %v, want 0", got)
	}
	if got := CosineSimilarity(RatioMap{}, RatioMap{}); got != 0 {
		t.Errorf("cos_sim of empty maps = %v, want 0", got)
	}
	if got := CosineSimilarity(nil, m); got != 0 {
		t.Errorf("cos_sim with nil map = %v, want 0", got)
	}
}

// ratioMapFromBytes builds a small ratio map from fuzz bytes for property
// tests.
func ratioMapFromBytes(bs []byte) RatioMap {
	m := RatioMap{}
	replicas := []ReplicaID{"r0", "r1", "r2", "r3", "r4"}
	for i, b := range bs {
		if i >= len(replicas) {
			break
		}
		if b > 0 {
			m[replicas[i]] = float64(b)
		}
	}
	return m
}

func TestCosineSimilarityProperties(t *testing.T) {
	symmetric := func(x, y []byte) bool {
		a, b := ratioMapFromBytes(x), ratioMapFromBytes(y)
		return CosineSimilarity(a, b) == CosineSimilarity(b, a)
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	bounded := func(x, y []byte) bool {
		s := CosineSimilarity(ratioMapFromBytes(x), ratioMapFromBytes(y))
		return s >= 0 && s <= 1
	}
	if err := quick.Check(bounded, nil); err != nil {
		t.Errorf("bounds: %v", err)
	}
	selfIsOne := func(x []byte) bool {
		m := ratioMapFromBytes(x)
		if len(m) == 0 {
			return CosineSimilarity(m, m) == 0
		}
		return almostEqual(CosineSimilarity(m, m), 1, 1e-9)
	}
	if err := quick.Check(selfIsOne, nil); err != nil {
		t.Errorf("self similarity: %v", err)
	}
	scaleInvariant := func(x []byte, k uint8) bool {
		m := ratioMapFromBytes(x)
		scale := float64(k)/16 + 0.5
		scaled := RatioMap{}
		for r, f := range m {
			scaled[r] = f * scale
		}
		return almostEqual(CosineSimilarity(m, scaled), CosineSimilarity(m, m), 1e-9)
	}
	if err := quick.Check(scaleInvariant, nil); err != nil {
		t.Errorf("scale invariance: %v", err)
	}
}

func TestDot(t *testing.T) {
	a := RatioMap{"r1": 0.5, "r2": 0.5}
	b := RatioMap{"r2": 1.0, "r3": 2.0}
	if got := Dot(a, b); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("Dot = %v, want 0.5", got)
	}
	if Dot(a, b) != Dot(b, a) {
		t.Error("Dot not symmetric")
	}
	if got := Dot(a, RatioMap{"zz": 1}); got != 0 {
		t.Errorf("disjoint Dot = %v, want 0", got)
	}
}

// normalize returns a copy of m scaled so the ratios sum to 1, or an empty
// map for an empty or all-zero m: the test worlds' way to build a ratio map.
func normalize(m RatioMap) RatioMap {
	sum := m.Sum()
	if sum <= 0 {
		return RatioMap{}
	}
	out := make(RatioMap, len(m))
	for r, f := range m {
		out[r] = f / sum
	}
	return out
}

func TestCloneIndependent(t *testing.T) {
	m := RatioMap{"r1": 0.5}
	c := m.Clone()
	c["r1"] = 0.9
	c["r2"] = 0.1
	if m["r1"] != 0.5 || len(m) != 1 {
		t.Error("Clone shares storage with the original")
	}
}

func TestNorm(t *testing.T) {
	m := RatioMap{"r1": 3, "r2": 4}
	if got := m.Norm(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := (RatioMap{}).Norm(); got != 0 {
		t.Errorf("empty Norm = %v, want 0", got)
	}
}

func TestReplicasSorted(t *testing.T) {
	m := RatioMap{"z": 1, "a": 1, "m": 1}
	got := m.Replicas()
	want := []ReplicaID{"a", "m", "z"}
	if len(got) != len(want) {
		t.Fatalf("Replicas = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Replicas = %v, want %v", got, want)
		}
	}
}

func TestStringNotation(t *testing.T) {
	m := RatioMap{"r1": 0.3, "r2": 0.7}
	if got, want := m.String(), "⟨r1 ⇒ 0.300, r2 ⇒ 0.700⟩"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestJaccardSimilarity(t *testing.T) {
	a := RatioMap{"r1": 0.9, "r2": 0.1}
	b := RatioMap{"r2": 0.5, "r3": 0.5}
	if got := JaccardSimilarity(a, b); !almostEqual(got, 1.0/3, 1e-12) {
		t.Errorf("Jaccard = %v, want 1/3", got)
	}
	if got := JaccardSimilarity(a, a); got != 1 {
		t.Errorf("self Jaccard = %v, want 1", got)
	}
	if got := JaccardSimilarity(a, RatioMap{}); got != 0 {
		t.Errorf("empty Jaccard = %v, want 0", got)
	}
}

func TestOverlapCount(t *testing.T) {
	a := RatioMap{"r1": 1, "r2": 1, "r3": 1}
	b := RatioMap{"r2": 1, "r3": 1, "r4": 1}
	if got := OverlapCount(a, b); got != 2 {
		t.Errorf("OverlapCount = %d, want 2", got)
	}
	if got := OverlapCount(a, RatioMap{}); got != 0 {
		t.Errorf("OverlapCount vs empty = %d, want 0", got)
	}
}
