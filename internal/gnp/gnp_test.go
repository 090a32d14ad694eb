package gnp

import (
	"math"
	"testing"

	"repro/internal/binning"
	"repro/internal/netsim"
)

func testTopology(t *testing.T) *netsim.Topology {
	t.Helper()
	p := netsim.DefaultParams()
	p.NumClients = 80
	p.NumCandidates = 40
	p.NumReplicas = 20
	topo, err := netsim.Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return topo
}

func embeddedSystem(t *testing.T, topo *netsim.Topology) *System {
	t.Helper()
	landmarks, err := binning.ChooseLandmarks(topo, topo.Candidates(), 12)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{Topo: topo, Landmarks: landmarks, Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hosts := append(topo.Clients(), topo.Candidates()...)
	if err := sys.Embed(hosts); err != nil {
		t.Fatalf("Embed: %v", err)
	}
	return sys
}

func TestNewValidation(t *testing.T) {
	topo := testTopology(t)
	if _, err := New(Config{Landmarks: topo.Candidates()[:5]}); err == nil {
		t.Error("nil topo should fail")
	}
	if _, err := New(Config{Topo: topo, Landmarks: topo.Candidates()[:2]}); err == nil {
		t.Error("two landmarks should fail")
	}
	if _, err := New(Config{Topo: topo, Landmarks: []netsim.HostID{-1, 2, 3}}); err == nil {
		t.Error("unknown landmark should fail")
	}
	if _, err := New(Config{Topo: topo, Landmarks: topo.Candidates()[:dim]}); err == nil {
		t.Error("dim >= landmarks should fail")
	}
}

func TestLandmarkFitQuality(t *testing.T) {
	topo := testTopology(t)
	landmarks, err := binning.ChooseLandmarks(topo, topo.Candidates(), 12)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{Topo: topo, Landmarks: landmarks, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Landmark-pair predictions should approximate the true RTTs: median
	// relative error under 50% (Euclidean embeddings can't be exact on
	// Internet-like latencies, but must capture the broad structure).
	var relErrs []float64
	for i := 0; i < len(landmarks); i++ {
		for j := i + 1; j < len(landmarks); j++ {
			pred, err := sys.PredictMs(landmarks[i], landmarks[j])
			if err != nil {
				t.Fatal(err)
			}
			truth := topo.RTTMs(landmarks[i], landmarks[j], 0)
			if truth > 0 {
				relErrs = append(relErrs, math.Abs(pred-truth)/truth)
			}
		}
	}
	within := 0
	for _, e := range relErrs {
		if e < 0.5 {
			within++
		}
	}
	if frac := float64(within) / float64(len(relErrs)); frac < 0.7 {
		t.Errorf("only %.0f%% of landmark pairs within 50%% relative error", frac*100)
	}
}

func TestEmbedPredictionsOrderPairs(t *testing.T) {
	topo := testTopology(t)
	sys := embeddedSystem(t, topo)
	clients := topo.Clients()

	correct, total := 0, 0
	for i := 0; i+2 < len(clients); i += 3 {
		a, b, c := clients[i], clients[i+1], clients[i+2]
		tb, tc := topo.BaseRTTMs(a, b), topo.BaseRTTMs(a, c)
		if math.Abs(tb-tc) < 25 {
			continue
		}
		pb, err := sys.PredictMs(a, b)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := sys.PredictMs(a, c)
		if err != nil {
			t.Fatal(err)
		}
		if (tb < tc) == (pb < pc) {
			correct++
		}
		total++
	}
	if total == 0 {
		t.Fatal("no informative triples")
	}
	if frac := float64(correct) / float64(total); frac < 0.7 {
		t.Errorf("GNP ordered only %.0f%% of clear triples correctly", frac*100)
	}
}

func TestEmbedErrors(t *testing.T) {
	topo := testTopology(t)
	sys := embeddedSystem(t, topo)
	if err := sys.Embed([]netsim.HostID{-1}); err == nil {
		t.Error("embedding an unknown host should fail")
	}
	if _, err := sys.PredictMs(topo.Clients()[0], netsim.HostID(1<<30)); err == nil {
		t.Error("predicting an unembedded host should fail")
	}
}

func TestCoordCopy(t *testing.T) {
	topo := testTopology(t)
	sys := embeddedSystem(t, topo)
	c, ok := sys.Coord(topo.Clients()[0])
	if !ok || len(c) != dim {
		t.Fatalf("Coord = %v, %v", c, ok)
	}
	c[0] = 1e9
	c2, _ := sys.Coord(topo.Clients()[0])
	if c2[0] == 1e9 {
		t.Error("Coord exposes internal storage")
	}
	if _, ok := sys.Coord(netsim.HostID(1 << 30)); ok {
		t.Error("Coord of unembedded host reported ok")
	}
}

func TestSelectClosestBeatsRandom(t *testing.T) {
	topo := testTopology(t)
	sys := embeddedSystem(t, topo)
	candidates := topo.Candidates()

	var selSum, randSum float64
	clients := topo.Clients()[:40]
	for i, c := range clients {
		pick, err := sys.SelectClosest(c, candidates)
		if err != nil {
			t.Fatal(err)
		}
		selSum += topo.BaseRTTMs(c, pick)
		randSum += topo.BaseRTTMs(c, candidates[(i*13)%len(candidates)])
	}
	if selSum >= randSum {
		t.Errorf("GNP selection (avg %.1f) no better than random (avg %.1f)",
			selSum/float64(len(clients)), randSum/float64(len(clients)))
	}
	if _, err := sys.SelectClosest(clients[0], nil); err == nil {
		t.Error("no candidates should fail")
	}
}

func TestDeterministic(t *testing.T) {
	topo := testTopology(t)
	landmarks, err := binning.ChooseLandmarks(topo, topo.Candidates(), 10)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *System {
		sys, err := New(Config{Topo: topo, Landmarks: landmarks, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Embed(topo.Clients()[:10]); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	a, b := build(), build()
	for _, h := range topo.Clients()[:10] {
		ca, _ := a.Coord(h)
		cb, _ := b.Coord(h)
		for k := range ca {
			if ca[k] != cb[k] {
				t.Fatalf("coordinates differ across identical runs for host %d", h)
			}
		}
	}
}
