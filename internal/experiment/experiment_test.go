package experiment

import (
	"sync"
	"testing"
	"time"

	"repro/crp"
	"repro/internal/netsim"
)

// Short aliases keep the test bodies readable.
type (
	netsimHostID = netsim.HostID
	ratioMap     = crp.RatioMap
	replicaID    = crp.ReplicaID
)

var cosine = crp.CosineSimilarity

// The experiment tests run a reduced-scale scenario (shared across tests)
// and assert the *shape* of the paper's results rather than absolute
// numbers.

var (
	scenarioOnce sync.Once
	sharedSc     *PaperWorld
	scenarioErr  error
)

func testScenario(t *testing.T) *PaperWorld {
	t.Helper()
	scenarioOnce.Do(func() {
		// Candidate and replica densities are kept close to the paper's
		// (240 candidates, dense CDN): CRP's Top-K averaging needs several
		// candidates per metro to be meaningful, exactly as on PlanetLab.
		sharedSc, scenarioErr = NewPaperWorld(WorldParams{
			Seed:             1,
			NumClients:       150,
			NumCandidates:    240,
			NumReplicas:      500,
			MeridianFailures: true,
		})
	})
	if scenarioErr != nil {
		t.Fatalf("NewPaperWorld: %v", scenarioErr)
	}
	return sharedSc
}

func shortSchedule() ProbeSchedule {
	return ProbeSchedule{Interval: 10 * time.Minute, Probes: 36}
}

func TestNewScenarioDefaultsAndErrors(t *testing.T) {
	s := testScenario(t)
	if len(s.Clients) != 150 || len(s.Candidates) != 240 {
		t.Errorf("scenario sizes: %d clients, %d candidates", len(s.Clients), len(s.Candidates))
	}
	if s.Fleet == nil || s.Meridian == nil {
		t.Fatal("scenario missing subsystems")
	}
	// Node/host round trip.
	id := s.Clients[0]
	node := s.NodeID(id)
	back, ok := s.HostOf(node)
	if !ok || back != id {
		t.Errorf("HostOf(NodeID(%d)) = %d,%v", id, back, ok)
	}
}

func TestProbeScheduleValidate(t *testing.T) {
	if err := (ProbeSchedule{Interval: 0, Probes: 5}).Validate(); err == nil {
		t.Error("zero interval should fail")
	}
	if err := (ProbeSchedule{Interval: time.Minute, Probes: 0}).Validate(); err == nil {
		t.Error("zero probes should fail")
	}
	ps := ProbeSchedule{Start: time.Hour, Interval: 10 * time.Minute, Probes: 7}
	if got, want := ps.End(), time.Hour+time.Minute*60; got != want {
		t.Errorf("End = %v, want %v", got, want)
	}
}

func TestCollectServiceProducesNormalizedMaps(t *testing.T) {
	s := testScenario(t)
	node := s.NodeID(s.Clients[0])
	svc, err := s.CollectService(s.Clients[:1], shortSchedule())
	if err != nil {
		t.Fatal(err)
	}
	m, err := svc.RatioMap(node)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) == 0 {
		t.Fatal("empty ratio map")
	}
	if sum := m.Sum(); sum < 0.999 || sum > 1.001 {
		t.Errorf("ratio sum = %v", sum)
	}
	// The paper observes hosts see a small set of frequent replicas.
	if len(m) > 25 {
		t.Errorf("client saw %d replicas, expected a small set", len(m))
	}
	// Window option limits probes (each probe step resolves two names).
	ps := shortSchedule()
	ps.Window = 5
	svcw, err := s.CollectService(s.Clients[:1], ps)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := svcw.ExportDelta(node)
	if !ok {
		t.Fatal("windowed service does not hold the client")
	}
	if got, want := len(d.Probes), 5*len(s.Fleet.Members()[0].Names()); got != want {
		t.Errorf("windowed service holds %d lookups, want %d", got, want)
	}
	if _, err := s.CollectService(s.Clients[:1], ProbeSchedule{}); err == nil {
		t.Error("invalid schedule accepted")
	}
}

func TestNearbyClientsHaveHigherSimilarity(t *testing.T) {
	// The core CRP hypothesis, end to end through the scenario plumbing.
	s := testScenario(t)
	maps, err := s.CollectRatioMaps(s.Clients[:60], shortSchedule())
	if err != nil {
		t.Fatal(err)
	}
	var sameSum, crossSum float64
	var sameN, crossN int
	for i := 0; i < 60; i++ {
		for j := i + 1; j < 60; j++ {
			a, b := s.Clients[i], s.Clients[j]
			ha, hb := s.Topo.Host(a), s.Topo.Host(b)
			sim := simOf(maps, a, b, s)
			switch {
			case ha.Metro == hb.Metro:
				sameSum += sim
				sameN++
			case ha.Region != hb.Region:
				crossSum += sim
				crossN++
			}
		}
	}
	if sameN == 0 || crossN == 0 {
		t.Fatal("degenerate sample")
	}
	if sameSum/float64(sameN) <= 2*crossSum/float64(crossN) {
		t.Errorf("same-metro similarity %.3f not well above cross-region %.3f",
			sameSum/float64(sameN), crossSum/float64(crossN))
	}
}

func simOf(maps map[netsimHostID]ratioMap, a, b netsimHostID, s *PaperWorld) float64 {
	return cosine(maps[a], maps[b])
}

func TestRunClosestNodeShape(t *testing.T) {
	s := testScenario(t)
	outcome, err := s.RunClosestNode(ClosestNodeConfig{Schedule: shortSchedule()})
	if err != nil {
		t.Fatal(err)
	}
	if len(outcome.Results) != len(s.Clients) {
		t.Fatalf("results for %d clients, want %d", len(outcome.Results), len(s.Clients))
	}
	st := outcome.Stats()

	// Optimal is the floor for every system.
	for _, r := range outcome.Results {
		if r.CRPTop1 < r.Optimal-1e-9 || r.Meridian < r.Optimal-1e-9 {
			t.Fatalf("selected latency below optimal for client %d: %+v", r.Client, r)
		}
		if r.CRPTop1Rank < 0 || r.CRPTop1Rank >= len(s.Candidates) {
			t.Fatalf("bad rank %d", r.CRPTop1Rank)
		}
	}

	// Paper shape: CRP TopK is comparable to Meridian — its mean within a
	// modest factor, beating Meridian for a substantial minority of clients.
	if st.MeanCRPTopK > 2*st.MeanMeridian {
		t.Errorf("CRP topK mean %.1f ms not comparable to Meridian %.1f ms",
			st.MeanCRPTopK, st.MeanMeridian)
	}
	if st.FracCRPBeatsMeridian < 0.10 {
		t.Errorf("CRP beats Meridian only %.0f%% of the time; paper reports >25%%",
			100*st.FracCRPBeatsMeridian)
	}
	if st.FracTopKNearMeridian < 0.4 {
		t.Errorf("CRP TopK within 7 ms of Meridian only %.0f%% of the time; paper reports ~65%%",
			100*st.FracTopKNearMeridian)
	}
	// Both systems must be far better than chance: compare to the
	// population's mean optimal as a sanity anchor.
	if st.MeanCRPTop1 < st.MeanOptimal {
		t.Error("impossible: mean CRP Top1 below optimal")
	}
	if st.FracNoSignal > 0.2 {
		t.Errorf("%.0f%% of clients had no CRP signal; CDN coverage too sparse", 100*st.FracNoSignal)
	}
	// Top-1 of TopK is at most the TopK average only when K candidates are
	// worse; just check TopK doesn't wildly exceed Top1.
	if st.MeanCRPTopK > 3*st.MeanCRPTop1+20 {
		t.Errorf("TopK average %.1f inconsistent with Top1 %.1f", st.MeanCRPTopK, st.MeanCRPTop1)
	}
}

func TestRunClosestNodeDeterministic(t *testing.T) {
	s := testScenario(t)
	cfg := ClosestNodeConfig{Schedule: ProbeSchedule{Interval: 10 * time.Minute, Probes: 12}}
	a, err := s.RunClosestNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RunClosestNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			t.Fatalf("result %d differs across identical runs", i)
		}
	}
}

func TestRunClusteringShape(t *testing.T) {
	s := testScenario(t)
	outcome, err := s.RunClustering(ClusteringConfig{
		NumNodes:   100,
		Schedule:   shortSchedule(),
		SecondPass: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outcome.CRPRows) != 3 {
		t.Fatalf("CRP rows = %d, want 3 thresholds", len(outcome.CRPRows))
	}
	focus := outcome.CRPRows[outcome.Focus]
	if focus.Label != "CRP (t=0.1)" {
		t.Errorf("focus row = %q", focus.Label)
	}

	// Table I shape: lower thresholds cluster at least as many nodes.
	if outcome.CRPRows[0].Summary.NodesClustered < outcome.CRPRows[2].Summary.NodesClustered {
		t.Errorf("t=0.01 clustered %d < t=0.5 clustered %d",
			outcome.CRPRows[0].Summary.NodesClustered, outcome.CRPRows[2].Summary.NodesClustered)
	}
	// CRP clusters far more nodes than ASN (paper: >3x).
	if focus.Summary.NodesClustered < outcome.ASN.Summary.NodesClustered {
		t.Errorf("CRP clustered %d nodes, ASN %d; CRP should cluster more",
			focus.Summary.NodesClustered, outcome.ASN.Summary.NodesClustered)
	}
	// Fig. 7 shape: CRP finds at least as many good clusters in both
	// buckets, and strictly more in total.
	crpGood := focus.GoodBuckets[0] + focus.GoodBuckets[1]
	asnGood := outcome.ASN.GoodBuckets[0] + outcome.ASN.GoodBuckets[1]
	if crpGood <= asnGood {
		t.Errorf("CRP good clusters %d not above ASN %d", crpGood, asnGood)
	}
	// Fig. 6 shape: most evaluated CRP clusters are good.
	if focus.GoodFraction() < 0.5 {
		t.Errorf("only %.0f%% of CRP clusters are good", 100*focus.GoodFraction())
	}
}

func TestRunClusteringValidation(t *testing.T) {
	s := testScenario(t)
	if _, err := s.RunClustering(ClusteringConfig{NumNodes: 10_000}); err == nil {
		t.Error("requesting more nodes than clients should fail")
	}
}

func TestRunProbeIntervalSweepShape(t *testing.T) {
	s := testScenario(t)
	intervals := []time.Duration{20 * time.Minute, 100 * time.Minute, 500 * time.Minute, 2000 * time.Minute}
	series, err := s.RunProbeIntervalSweep(intervals, RankSweepConfig{
		Duration:          3 * 24 * time.Hour,
		CandidateInterval: 20 * time.Minute,
		DecisionPoints:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	// Fig. 8 shape: 20-minute and 100-minute probing perform comparably;
	// 2000-minute probing is clearly worse and covers fewer clients.
	if series[0].Mean() > series[1].Mean()*1.5+3 {
		t.Errorf("20-min rank %.1f much worse than 100-min %.1f", series[0].Mean(), series[1].Mean())
	}
	if series[3].Mean() < series[0].Mean() {
		t.Errorf("2000-min mean rank %.1f better than 20-min %.1f; staleness should hurt",
			series[3].Mean(), series[0].Mean())
	}
	if series[3].ClientsWithSignal > series[0].ClientsWithSignal {
		t.Errorf("2000-min covers %d clients > 20-min %d",
			series[3].ClientsWithSignal, series[0].ClientsWithSignal)
	}
	for _, sr := range series {
		if sr.ClientsWithSignal == 0 {
			t.Errorf("series %q has no clients with signal", sr.Label)
		}
	}
}

func TestRunWindowSweepShape(t *testing.T) {
	s := testScenario(t)
	series, err := s.RunWindowSweep([]int{0, 30, 10, 5}, 10*time.Minute, RankSweepConfig{
		Duration:          2 * 24 * time.Hour,
		CandidateInterval: 20 * time.Minute,
		DecisionPoints:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	means := map[string]float64{}
	for _, sr := range series {
		means[sr.Label] = sr.Mean()
	}
	// Fig. 9 shape: a 10-probe window is sufficient — close to the 30-probe
	// window — while 5 probes is noticeably coarser or equal.
	if means["Top1 10 probes"] > means["Top1 30 probes"]*2+3 {
		t.Errorf("10-probe rank %.1f much worse than 30-probe %.1f",
			means["Top1 10 probes"], means["Top1 30 probes"])
	}
	if means["Top1 5 probes"]+1e-9 < means["Top1 10 probes"]*0.5 {
		t.Errorf("5-probe rank %.1f implausibly better than 10-probe %.1f",
			means["Top1 5 probes"], means["Top1 10 probes"])
	}
}

func TestRunSweepValidation(t *testing.T) {
	s := testScenario(t)
	if _, err := s.RunProbeIntervalSweep(nil, RankSweepConfig{}); err == nil {
		t.Error("empty intervals should fail")
	}
	if _, err := s.RunWindowSweep(nil, time.Minute, RankSweepConfig{}); err == nil {
		t.Error("empty windows should fail")
	}
}

func TestLookupHistoryMapUpTo(t *testing.T) {
	h := lookupHistory{
		times: []time.Duration{0, time.Minute, 2 * time.Minute, 3 * time.Minute},
		sets: [][]replicaID{
			{"a"}, {"b"}, {"c"}, {"d"},
		},
	}
	m := h.mapUpTo(2*time.Minute, 0)
	if len(m) != 3 {
		t.Errorf("all-window map at t=2m has %d entries, want 3", len(m))
	}
	m = h.mapUpTo(2*time.Minute, 2)
	if len(m) != 2 {
		t.Errorf("window-2 map has %d entries, want 2", len(m))
	}
	if _, ok := m["b"]; !ok {
		t.Error("window should keep the 2 most recent lookups (b, c)")
	}
	if _, ok := m["a"]; ok {
		t.Error("window kept a stale lookup")
	}
	if got := h.mapUpTo(-time.Second, 0); len(got) != 0 {
		t.Errorf("map before first probe = %v", got)
	}
}
