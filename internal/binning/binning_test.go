package binning

import (
	"testing"

	"repro/internal/netsim"
)

func testTopology(t *testing.T) *netsim.Topology {
	t.Helper()
	p := netsim.DefaultParams()
	p.NumClients = 100
	p.NumCandidates = 40
	p.NumReplicas = 30
	topo, err := netsim.Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return topo
}

func measuredSystem(t *testing.T, topo *netsim.Topology) (*System, []netsim.HostID) {
	t.Helper()
	landmarks, err := ChooseLandmarks(topo, topo.Candidates(), 10)
	if err != nil {
		t.Fatal(err)
	}
	hosts := append(topo.Clients(), topo.Candidates()...)
	sys, err := Measure(Config{Topo: topo, Landmarks: landmarks}, hosts, 0)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	return sys, hosts
}

func TestChooseLandmarksSpread(t *testing.T) {
	topo := testTopology(t)
	landmarks, err := ChooseLandmarks(topo, topo.Candidates(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(landmarks) != 8 {
		t.Fatalf("chose %d landmarks, want 8", len(landmarks))
	}
	seen := map[netsim.HostID]bool{}
	for _, l := range landmarks {
		if seen[l] {
			t.Fatalf("landmark %d chosen twice", l)
		}
		seen[l] = true
	}
	// Greedy max-min should spread landmarks across regions.
	regions := map[string]bool{}
	for _, l := range landmarks {
		regions[topo.Host(l).Region] = true
	}
	if len(regions) < 3 {
		t.Errorf("landmarks span only %d regions", len(regions))
	}
}

func TestChooseLandmarksValidation(t *testing.T) {
	topo := testTopology(t)
	if _, err := ChooseLandmarks(nil, topo.Candidates(), 3); err == nil {
		t.Error("nil topo should fail")
	}
	if _, err := ChooseLandmarks(topo, topo.Candidates()[:2], 5); err == nil {
		t.Error("k > pool should fail")
	}
	if _, err := ChooseLandmarks(topo, topo.Candidates(), 0); err == nil {
		t.Error("k=0 should fail")
	}
}

func TestMeasureValidation(t *testing.T) {
	topo := testTopology(t)
	if _, err := Measure(Config{Landmarks: topo.Candidates()[:3]}, topo.Clients(), 0); err == nil {
		t.Error("nil topo should fail")
	}
	if _, err := Measure(Config{Topo: topo, Landmarks: topo.Candidates()[:1]}, topo.Clients(), 0); err == nil {
		t.Error("one landmark should fail")
	}
	if _, err := Measure(Config{Topo: topo, Landmarks: []netsim.HostID{-1, 2}}, topo.Clients(), 0); err == nil {
		t.Error("unknown landmark should fail")
	}
	if _, err := Measure(Config{Topo: topo, Landmarks: topo.Candidates()[:3]}, []netsim.HostID{-1}, 0); err == nil {
		t.Error("unknown host should fail")
	}
}

func TestBinsWellFormed(t *testing.T) {
	topo := testTopology(t)
	sys, hosts := measuredSystem(t, topo)
	for _, h := range hosts {
		bin, ok := sys.Bin(h)
		if !ok {
			t.Fatalf("host %d not measured", h)
		}
		if len(bin.Order) != 10 || len(bin.Levels) != 10 {
			t.Fatalf("bin shape: %+v", bin)
		}
		// Order is a permutation of 0..9.
		seen := map[int]bool{}
		for _, idx := range bin.Order {
			if idx < 0 || idx >= 10 || seen[idx] {
				t.Fatalf("order not a permutation: %v", bin.Order)
			}
			seen[idx] = true
		}
		for _, lv := range bin.Levels {
			if lv < 0 || lv > len(DefaultLevels) {
				t.Fatalf("level out of range: %v", bin.Levels)
			}
		}
	}
}

func TestSimilarityReflectsProximity(t *testing.T) {
	topo := testTopology(t)
	sys, _ := measuredSystem(t, topo)
	clients := topo.Clients()

	var sameSum, crossSum float64
	var sameN, crossN int
	for i := 0; i < len(clients); i++ {
		for j := i + 1; j < len(clients); j++ {
			a, b := topo.Host(clients[i]), topo.Host(clients[j])
			sim, err := sys.Similarity(a.ID, b.ID)
			if err != nil {
				t.Fatal(err)
			}
			if sim < 0 || sim > 1 {
				t.Fatalf("similarity %v out of range", sim)
			}
			switch {
			case a.Metro == b.Metro:
				sameSum += sim
				sameN++
			case a.Region != b.Region:
				crossSum += sim
				crossN++
			}
		}
	}
	if sameN == 0 || crossN == 0 {
		t.Fatal("degenerate sample")
	}
	if sameSum/float64(sameN) <= crossSum/float64(crossN) {
		t.Errorf("same-metro bin similarity %.3f not above cross-region %.3f",
			sameSum/float64(sameN), crossSum/float64(crossN))
	}
}

func TestSimilarityErrors(t *testing.T) {
	topo := testTopology(t)
	sys, hosts := measuredSystem(t, topo)
	if _, err := sys.Similarity(hosts[0], netsim.HostID(1<<30)); err == nil {
		t.Error("unmeasured host should fail")
	}
}

func TestSelectClosestBeatsRandom(t *testing.T) {
	topo := testTopology(t)
	sys, _ := measuredSystem(t, topo)
	candidates := topo.Candidates()

	var selSum, randSum float64
	clients := topo.Clients()[:50]
	for i, c := range clients {
		pick, err := sys.SelectClosest(c, candidates)
		if err != nil {
			t.Fatal(err)
		}
		selSum += topo.BaseRTTMs(c, pick)
		randSum += topo.BaseRTTMs(c, candidates[(i*11)%len(candidates)])
	}
	if selSum >= randSum {
		t.Errorf("binning selection (avg %.1f) no better than random (avg %.1f)",
			selSum/float64(len(clients)), randSum/float64(len(clients)))
	}
	if _, err := sys.SelectClosest(clients[0], nil); err == nil {
		t.Error("no candidates should fail")
	}
}

func TestClustersPartitionByBin(t *testing.T) {
	topo := testTopology(t)
	sys, hosts := measuredSystem(t, topo)
	clusters := sys.Clusters()

	total := 0
	seen := map[string]bool{}
	for _, c := range clusters {
		total += len(c.Members)
		for _, m := range c.Members {
			if seen[string(m)] {
				t.Fatalf("node %v in two clusters", m)
			}
			seen[string(m)] = true
		}
		// Same cluster ⇒ identical bins.
		first, _ := topo.HostByName(string(c.Members[0]))
		fb, _ := sys.Bin(first)
		for _, m := range c.Members[1:] {
			id, _ := topo.HostByName(string(m))
			mb, _ := sys.Bin(id)
			if !fb.Equal(mb) {
				t.Fatalf("cluster %v mixes bins", c.Center)
			}
		}
	}
	if total != len(hosts) {
		t.Errorf("clusters cover %d hosts, want %d", total, len(hosts))
	}
}

func TestBinEqual(t *testing.T) {
	a := Bin{Order: []int{0, 1}, Levels: []int{0, 1}}
	if !a.Equal(Bin{Order: []int{0, 1}, Levels: []int{0, 1}}) {
		t.Error("identical bins not equal")
	}
	if a.Equal(Bin{Order: []int{1, 0}, Levels: []int{0, 1}}) {
		t.Error("different orders equal")
	}
	if a.Equal(Bin{Order: []int{0, 1}, Levels: []int{1, 1}}) {
		t.Error("different levels equal")
	}
	if a.Equal(Bin{Order: []int{0}, Levels: []int{0}}) {
		t.Error("different sizes equal")
	}
}
