package crp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestNamespaceValid(t *testing.T) {
	cases := []struct {
		ns Namespace
		ok bool
	}{
		{DefaultNamespace, true},
		{"cdnA", true},
		{Namespace(strings.Repeat("x", MaxNamespaceBytes)), true},
		{Namespace(strings.Repeat("x", MaxNamespaceBytes+1)), false},
		{"with!sep", false},
		{"with\x00nul", false},
		{Namespace([]byte{0xff, 0xfe}), false},
		{"ünïcode", true},
	}
	for _, c := range cases {
		err := c.ns.Valid()
		if (err == nil) != c.ok {
			t.Errorf("Namespace(%q).Valid() = %v, want ok=%v", c.ns, err, c.ok)
		}
	}
}

func TestQualifySplitRoundTrip(t *testing.T) {
	// The default namespace qualifies to identity.
	if got := Qualify(DefaultNamespace, "r1"); got != "r1" {
		t.Fatalf("Qualify(default, r1) = %q", got)
	}
	q := Qualify("cdnA", "r1")
	if q != "cdnA!r1" {
		t.Fatalf("Qualify = %q, want cdnA!r1", q)
	}
	ns, r := SplitReplica(q)
	if ns != "cdnA" || r != "r1" {
		t.Fatalf("SplitReplica(%q) = %q, %q", q, ns, r)
	}
	if NamespaceOf(q) != "cdnA" || NamespaceOf("bare") != DefaultNamespace {
		t.Fatal("NamespaceOf mismatch")
	}
	// The first separator wins: the replica part may itself contain '!'.
	ns, r = SplitReplica("a!b!c")
	if ns != "a" || r != "b!c" {
		t.Fatalf("SplitReplica(a!b!c) = %q, %q", ns, r)
	}
}

func TestNamespaceViewAndList(t *testing.T) {
	m := RatioMap{
		"cdnA!r1": 0.3,
		"cdnA!r2": 0.2,
		"cdnB!r1": 0.4,
		"bare":    0.1,
	}
	if got := m.Namespaces(); len(got) != 3 || got[0] != DefaultNamespace || got[1] != "cdnA" || got[2] != "cdnB" {
		t.Fatalf("Namespaces() = %v", got)
	}
	va := m.NamespaceView("cdnA")
	if len(va) != 2 || va["cdnA!r1"] != 0.3 || va["cdnA!r2"] != 0.2 {
		t.Fatalf("NamespaceView(cdnA) = %v", va)
	}
	// The view is NOT renormalized: mass is the coverage signal.
	if got := va.Sum(); math.Abs(got-0.5) > 1e-15 {
		t.Fatalf("view mass = %v, want 0.5", got)
	}
	vd := m.NamespaceView(DefaultNamespace)
	if len(vd) != 1 || vd["bare"] != 0.1 {
		t.Fatalf("NamespaceView(default) = %v", vd)
	}
}

// randomRatioMap draws a normalized map over a shared replica pool so two
// draws overlap realistically.
func randomRatioMap(rng *rand.Rand, ns Namespace, pool, size int) RatioMap {
	m := make(RatioMap)
	for len(m) < size {
		r := Qualify(ns, ReplicaID(fmt.Sprintf("r%03d", rng.Intn(pool))))
		m[r] = float64(1+rng.Intn(100)) / 100
	}
	return m.Normalize()
}

// TestFusedCosineSingleNamespaceBitIdentical is the kernel-level back-compat
// pin: on maps holding exactly one namespace — default or named — the fused
// kernel must return the plain cosine bit for bit, whatever the weights.
func TestFusedCosineSingleNamespaceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, ns := range []Namespace{DefaultNamespace, "cdnA"} {
		for i := 0; i < 500; i++ {
			a := randomRatioMap(rng, ns, 40, 1+rng.Intn(12))
			b := randomRatioMap(rng, ns, 40, 1+rng.Intn(12))
			want := CosineSimilarity(a, b)
			got, err := FusedCosineSimilarity(FusionConfig{}, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("ns=%q case %d: fused %v != plain %v (diff %g)", ns, i, got, want, got-want)
			}
			weighted, err := FusedCosineSimilarity(FusionConfig{Weights: map[Namespace]float64{ns: 0.25}}, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if weighted != want {
				t.Fatalf("ns=%q case %d: weighted single-ns fused %v != plain %v", ns, i, weighted, want)
			}
		}
	}
}

// TestCosineInMatchesFilteredMapCosine pins the namespace-scoped vector
// kernel against the map-level reference: restricting the cosine to one
// namespace equals computing the plain cosine over the NamespaceView maps.
func TestCosineInMatchesFilteredMapCosine(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	namespaces := []Namespace{DefaultNamespace, "cdnA", "cdnB"}
	for i := 0; i < 300; i++ {
		a, b := make(RatioMap), make(RatioMap)
		for _, ns := range namespaces {
			for r, v := range randomRatioMap(rng, ns, 25, rng.Intn(8)) {
				a[r] = v
			}
			for r, v := range randomRatioMap(rng, ns, 25, rng.Intn(8)) {
				b[r] = v
			}
		}
		va, vb := compileRatioMap(a), compileRatioMap(b)
		for _, ns := range namespaces {
			got := cosineIn(va, vb, ns)
			want := CosineSimilarity(a.NamespaceView(ns), b.NamespaceView(ns))
			if got != want {
				t.Fatalf("case %d ns=%q: cosineIn %v != filtered map cosine %v", i, ns, got, want)
			}
		}
	}
}

// TestFusedCosineMixing verifies the coverage-weighted mix against a
// hand-computed expectation on a two-namespace pair.
func TestFusedCosineMixing(t *testing.T) {
	a := RatioMap{"cdnA!r1": 0.4, "cdnA!r2": 0.2, "cdnB!s1": 0.4}
	b := RatioMap{"cdnA!r1": 0.3, "cdnA!r3": 0.3, "cdnB!s1": 0.2, "cdnB!s2": 0.2}

	cosA := CosineSimilarity(a.NamespaceView("cdnA"), b.NamespaceView("cdnA"))
	cosB := CosineSimilarity(a.NamespaceView("cdnB"), b.NamespaceView("cdnB"))
	// Default coverage weight: min(massA, massB) per namespace.
	wA := math.Min(0.6, 0.6)
	wB := math.Min(0.4, 0.4)
	want := (wA*cosA + wB*cosB) / (wA + wB)

	got, err := FusedCosineSimilarity(FusionConfig{}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("fused = %v, want %v", got, want)
	}

	// Static weights scale the coverage term per namespace.
	got2, err := FusedCosineSimilarity(FusionConfig{Weights: map[Namespace]float64{"cdnB": 3}}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want2 := (wA*cosA + 3*wB*cosB) / (wA + 3*wB)
	if math.Abs(got2-want2) > 1e-15 {
		t.Fatalf("weighted fused = %v, want %v", got2, want2)
	}

	// A zero or negative static weight removes the namespace from the mix
	// entirely.
	for _, w := range []float64{0, -1} {
		got3, err := FusedCosineSimilarity(FusionConfig{Weights: map[Namespace]float64{"cdnB": w}}, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got3 != cosA {
			t.Fatalf("cdnB weight %v: fused = %v, want pure cdnA cosine %v", w, got3, cosA)
		}
	}
}

func TestFusionConfigValidation(t *testing.T) {
	if _, err := FusedCosineSimilarity(FusionConfig{Weights: map[Namespace]float64{"bad!ns": 1}}, RatioMap{}, RatioMap{}); err == nil {
		t.Fatal("invalid weight namespace accepted")
	}
	// A non-finite weight would make every fused similarity NaN.
	a := RatioMap{"cdnA!r1": 0.5, "cdnB!s1": 0.5}
	b := RatioMap{"cdnA!r1": 0.5, "cdnB!s2": 0.5}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := FusionConfig{Weights: map[Namespace]float64{"cdnA": w}}
		if sim, err := FusedCosineSimilarity(cfg, a, b); err == nil {
			t.Errorf("weight %v: FusedCosineSimilarity = %v, want an error", w, sim)
		}
		if err := NewService().EnableFusion(cfg); err == nil {
			t.Errorf("weight %v: EnableFusion accepted", w)
		}
	}
	svc := NewService()
	if err := svc.EnableFusion(FusionConfig{}); err != nil {
		t.Fatal(err)
	}
	if !svc.FusionEnabled() {
		t.Fatal("FusionEnabled() = false after EnableFusion")
	}
	if err := svc.EnableFusion(FusionConfig{}); err == nil {
		t.Fatal("double EnableFusion accepted")
	}
}
