// Package repro's benchmark harness regenerates every table and figure of
// the CRP paper's evaluation as a testing.B benchmark, reporting the
// headline numbers via b.ReportMetric so `go test -bench` output doubles as
// a results table (EXPERIMENTS.md records a full-scale run made with
// cmd/crpbench). Reduced-scale scenarios keep the default bench run fast;
// the shapes match the full-scale runs.
package repro

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/crp"
	"repro/internal/experiment"
)

var (
	benchOnce sync.Once
	benchSc   *experiment.PaperWorld
	benchErr  error
)

// benchScenario is the shared reduced-scale world (same candidate density
// as the paper).
func benchScenario(b *testing.B) *experiment.PaperWorld {
	b.Helper()
	benchOnce.Do(func() {
		benchSc, benchErr = experiment.NewPaperWorld(experiment.WorldParams{
			Seed:             1,
			NumClients:       150,
			NumCandidates:    240,
			NumReplicas:      500,
			MeridianFailures: true,
		})
	})
	if benchErr != nil {
		b.Fatalf("NewPaperWorld: %v", benchErr)
	}
	return benchSc
}

func benchProbeCfg() experiment.ClosestNodeConfig {
	return experiment.ClosestNodeConfig{
		Schedule: experiment.ProbeSchedule{Interval: 10 * time.Minute, Probes: 36},
	}
}

func benchSweepCfg() experiment.RankSweepConfig {
	return experiment.RankSweepConfig{
		Duration:          2 * 24 * time.Hour,
		CandidateInterval: 30 * time.Minute,
		DecisionPoints:    3,
	}
}

// BenchmarkFig4ClosestNodeLatency regenerates Fig. 4: latency of the server
// selected by Meridian vs CRP Top-1 vs CRP Top-5 for every client.
func BenchmarkFig4ClosestNodeLatency(b *testing.B) {
	sc := benchScenario(b)
	var st experiment.ClosestNodeStats
	for i := 0; i < b.N; i++ {
		outcome, err := sc.RunClosestNode(benchProbeCfg())
		if err != nil {
			b.Fatal(err)
		}
		st = outcome.Stats()
	}
	b.ReportMetric(st.MeanOptimal, "optimal_ms")
	b.ReportMetric(st.MeanCRPTop1, "crp_top1_ms")
	b.ReportMetric(st.MeanCRPTopK, "crp_top5_ms")
	b.ReportMetric(st.MeanMeridian, "meridian_ms")
	b.ReportMetric(100*st.FracTopKNearMeridian, "near_meridian_pct")
}

// BenchmarkFig5RelativeError regenerates Fig. 5: selected-minus-optimal RTT
// at the median and 90th percentile for CRP and Meridian.
func BenchmarkFig5RelativeError(b *testing.B) {
	sc := benchScenario(b)
	var crpErr, merErr []float64
	for i := 0; i < b.N; i++ {
		outcome, err := sc.RunClosestNode(benchProbeCfg())
		if err != nil {
			b.Fatal(err)
		}
		crpErr = outcome.SortedSeries(func(r experiment.ClientResult) float64 { return r.CRPTopK - r.Optimal })
		merErr = outcome.SortedSeries(func(r experiment.ClientResult) float64 { return r.Meridian - r.Optimal })
	}
	b.ReportMetric(crpErr[len(crpErr)/2], "crp_err_p50_ms")
	b.ReportMetric(crpErr[len(crpErr)*9/10], "crp_err_p90_ms")
	b.ReportMetric(merErr[len(merErr)/2], "meridian_err_p50_ms")
	b.ReportMetric(merErr[len(merErr)*9/10], "meridian_err_p90_ms")
}

func benchClusterCfg() experiment.ClusteringConfig {
	return experiment.ClusteringConfig{
		NumNodes:   120,
		Schedule:   experiment.ProbeSchedule{Interval: 10 * time.Minute, Probes: 36},
		SecondPass: true,
	}
}

// BenchmarkTable1ClusteringSummary regenerates Table I: clustering summary
// statistics for CRP at t ∈ {0.01, 0.1, 0.5} vs ASN-based clustering.
func BenchmarkTable1ClusteringSummary(b *testing.B) {
	sc := benchScenario(b)
	var outcome *experiment.ClusteringOutcome
	for i := 0; i < b.N; i++ {
		var err error
		outcome, err = sc.RunClustering(benchClusterCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	focus := outcome.CRPRows[outcome.Focus]
	b.ReportMetric(float64(focus.Summary.NodesClustered), "crp_nodes_clustered")
	b.ReportMetric(float64(focus.Summary.NumClusters), "crp_clusters")
	b.ReportMetric(float64(outcome.ASN.Summary.NodesClustered), "asn_nodes_clustered")
	b.ReportMetric(float64(outcome.ASN.Summary.NumClusters), "asn_clusters")
}

// BenchmarkFig6ClusterCDF regenerates Fig. 6: the intra/inter-cluster
// distance distribution and the good-cluster fraction for CRP at t=0.1.
func BenchmarkFig6ClusterCDF(b *testing.B) {
	sc := benchScenario(b)
	var outcome *experiment.ClusteringOutcome
	for i := 0; i < b.N; i++ {
		var err error
		outcome, err = sc.RunClustering(benchClusterCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	focus := outcome.CRPRows[outcome.Focus]
	intra, inter := focus.IntraCDF()
	if len(intra) > 0 {
		b.ReportMetric(intra[len(intra)/2], "intra_p50_ms")
		b.ReportMetric(inter[len(inter)/2], "inter_p50_ms")
	}
	b.ReportMetric(100*focus.GoodFraction(), "good_pct")
}

// BenchmarkFig7GoodClusters regenerates Fig. 7: good-cluster counts per
// diameter bucket for CRP vs ASN.
func BenchmarkFig7GoodClusters(b *testing.B) {
	sc := benchScenario(b)
	var outcome *experiment.ClusteringOutcome
	for i := 0; i < b.N; i++ {
		var err error
		outcome, err = sc.RunClustering(benchClusterCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	focus := outcome.CRPRows[outcome.Focus]
	b.ReportMetric(float64(focus.GoodBuckets[0]), "crp_good_0_25")
	b.ReportMetric(float64(focus.GoodBuckets[1]), "crp_good_25_75")
	b.ReportMetric(float64(outcome.ASN.GoodBuckets[0]), "asn_good_0_25")
	b.ReportMetric(float64(outcome.ASN.GoodBuckets[1]), "asn_good_25_75")
}

// BenchmarkFig8ProbeInterval regenerates Fig. 8: average recommendation
// rank as the probe interval stretches from 20 to 2000 minutes.
func BenchmarkFig8ProbeInterval(b *testing.B) {
	sc := benchScenario(b)
	intervals := []time.Duration{20 * time.Minute, 100 * time.Minute, 500 * time.Minute, 2000 * time.Minute}
	var series []experiment.RankSeries
	for i := 0; i < b.N; i++ {
		var err error
		series, err = sc.RunProbeIntervalSweep(intervals, benchSweepCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, iv := range []string{"rank_20min", "rank_100min", "rank_500min", "rank_2000min"} {
		b.ReportMetric(series[i].Mean(), iv)
	}
	b.ReportMetric(float64(series[3].ClientsWithSignal), "clients_2000min")
}

// BenchmarkFig9WindowSize regenerates Fig. 9: average recommendation rank
// for window sizes of all/30/10/5 probes at a 10-minute interval.
func BenchmarkFig9WindowSize(b *testing.B) {
	sc := benchScenario(b)
	var series []experiment.RankSeries
	for i := 0; i < b.N; i++ {
		var err error
		series, err = sc.RunWindowSweep([]int{0, 30, 10, 5}, 10*time.Minute, benchSweepCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, label := range []string{"rank_all", "rank_30", "rank_10", "rank_5"} {
		b.ReportMetric(series[i].Mean(), label)
	}
}

// BenchmarkAblationSimilarityMetrics compares cosine vs Jaccard vs raw
// overlap for closest-node selection.
func BenchmarkAblationSimilarityMetrics(b *testing.B) {
	sc := benchScenario(b)
	var rows []experiment.SimilarityAblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sc.RunSimilarityAblation(benchProbeCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MeanRank, r.Label+"_rank")
	}
}

// BenchmarkAblationClusterCenters compares SMF center selection vs random
// centers.
func BenchmarkAblationClusterCenters(b *testing.B) {
	sc := benchScenario(b)
	var rows []experiment.CenterAblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sc.RunCenterAblation(benchClusterCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].GoodBuckets[0]+rows[0].GoodBuckets[1]), "smf_good")
	b.ReportMetric(float64(rows[1].GoodBuckets[0]+rows[1].GoodBuckets[1]), "random_good")
}

// BenchmarkAblationCoverage sweeps the CDN deployment size.
func BenchmarkAblationCoverage(b *testing.B) {
	var points []experiment.CoveragePoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiment.RunCoverageSweep(
			experiment.WorldParams{Seed: 1, NumClients: 80, NumCandidates: 120},
			[]int{120, 480},
			experiment.ClosestNodeConfig{Schedule: experiment.ProbeSchedule{Interval: 10 * time.Minute, Probes: 24}},
		)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points[0].MeanCRPTopK, "sparse_cdn_ms")
	b.ReportMetric(points[1].MeanCRPTopK, "dense_cdn_ms")
}

// BenchmarkAblationBaselines compares CRP, Meridian, Vivaldi and random
// selection on one scenario.
func BenchmarkAblationBaselines(b *testing.B) {
	sc := benchScenario(b)
	var rows []experiment.BaselineRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sc.RunBaselineComparison(benchProbeCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Label {
		case "optimal":
			b.ReportMetric(r.MeanRTT, "optimal_ms")
		case "meridian":
			b.ReportMetric(r.MeanRTT, "meridian_ms")
		case "vivaldi":
			b.ReportMetric(r.MeanRTT, "vivaldi_ms")
		case "binning":
			b.ReportMetric(r.MeanRTT, "binning_ms")
		case "gnp":
			b.ReportMetric(r.MeanRTT, "gnp_ms")
		case "random":
			b.ReportMetric(r.MeanRTT, "random_ms")
		}
	}
}

// --- Micro-benchmarks for the core data paths ---

func BenchmarkCosineSimilarity(b *testing.B) {
	a := crp.RatioMap{}
	c := crp.RatioMap{}
	for i := 0; i < 12; i++ {
		a[crp.ReplicaID(string(rune('a'+i)))] = float64(i + 1)
		if i%2 == 0 {
			c[crp.ReplicaID(string(rune('a'+i)))] = float64(13 - i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = crp.CosineSimilarity(a, c)
	}
}

func BenchmarkTrackerObserve(b *testing.B) {
	tr := crp.NewTracker(crp.WithWindow(20))
	at := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(at.Add(time.Duration(i)*time.Minute), "r1", "r2")
	}
}

func BenchmarkClusterSMF(b *testing.B) {
	var nodes []crp.Node
	for i := 0; i < 177; i++ {
		group := i % 36
		nodes = append(nodes, crp.Node{
			ID: crp.NodeID(string(rune('A'+group)) + string(rune('a'+i/36))),
			Map: crp.RatioMap{
				crp.ReplicaID("g" + string(rune('A'+group)) + "1"): 0.7,
				crp.ReplicaID("g" + string(rune('A'+group)) + "2"): 0.3,
			},
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crp.ClusterSMF(nodes, crp.ClusterConfig{Threshold: 0.1}); err != nil {
			b.Fatal(err)
		}
	}
}

// synthNodes builds n nodes whose ratio maps mimic a CRP population:
// groups of nodes share a metro's replica servers with node-specific biases,
// so similarity structure (and the SMF center selection) is realistic.
func synthNodes(n, groups, replicasPerGroup int) []crp.Node {
	nodes := make([]crp.Node, 0, n)
	for i := 0; i < n; i++ {
		g := i % groups
		m := crp.RatioMap{}
		for r := 0; r < replicasPerGroup; r++ {
			id := crp.ReplicaID(fmt.Sprintf("g%03d-r%d", g, r))
			m[id] = float64(1 + (i+r)%5)
		}
		// A little cross-metro bleed, like a client near a metro boundary.
		if i%7 == 0 {
			m[crp.ReplicaID(fmt.Sprintf("g%03d-r0", (g+1)%groups))] = 0.5
		}
		nodes = append(nodes, crp.Node{
			ID:  crp.NodeID(fmt.Sprintf("n%04d", i)),
			Map: m.Normalize(),
		})
	}
	return nodes
}

// BenchmarkClusterSMF1k measures SMF clustering at the paper's full scale
// (1,000 nodes) — the O(N·C) center-assignment hot path.
func BenchmarkClusterSMF1k(b *testing.B) {
	nodes := synthNodes(1000, 40, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crp.ClusterSMF(nodes, crp.ClusterConfig{Threshold: 0.1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRankBySimilarity1k measures ranking one client against 1,000
// candidate maps — the closest-node query fan-out.
func BenchmarkRankBySimilarity1k(b *testing.B) {
	nodes := synthNodes(1000, 40, 4)
	cands := make(map[crp.NodeID]crp.RatioMap, len(nodes))
	for _, n := range nodes {
		cands[n.ID] = n.Map
	}
	client := nodes[0].Map
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = crp.RankBySimilarity(client, cands)
	}
}

// BenchmarkServiceTopKRepeated measures repeated Service.TopK queries with
// no interleaved observations — the steady-state query load of a deployed
// positioning service, where ratio maps are unchanged between probes.
func BenchmarkServiceTopKRepeated(b *testing.B) {
	s := crp.NewService(crp.WithWindow(10))
	at := time.Now()
	nodes := synthNodes(1000, 40, 4)
	for _, n := range nodes {
		for _, r := range n.Map.Replicas() {
			if err := s.Observe(n.ID, at, r); err != nil {
				b.Fatal(err)
			}
		}
	}
	client := nodes[0].ID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TopK(client, nil, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCosineSimilarityMapPath measures the uncompiled map-based cosine
// (Dot + two Norms), kept as the reference kernel.
func BenchmarkCosineSimilarityMapPath(b *testing.B) {
	a := crp.RatioMap{}
	c := crp.RatioMap{}
	for i := 0; i < 12; i++ {
		a[crp.ReplicaID(string(rune('a'+i)))] = float64(i + 1)
		if i%2 == 0 {
			c[crp.ReplicaID(string(rune('a'+i)))] = float64(13 - i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dot := crp.Dot(a, c)
		if dot != 0 {
			_ = dot / (a.Norm() * c.Norm())
		}
	}
}

func BenchmarkCDNRedirect(b *testing.B) {
	sc := benchScenario(b)
	network := sc.Fleet.Members()[0]
	name := network.Names()[0]
	clients := sc.Clients
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := network.Redirect(name, clients[i%len(clients)], time.Duration(i)*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRTTModel(b *testing.B) {
	sc := benchScenario(b)
	hosts := sc.Clients
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sc.Topo.RTTMs(hosts[i%len(hosts)], hosts[(i*7+1)%len(hosts)], time.Duration(i)*time.Second)
	}
}

func BenchmarkMeridianQuery(b *testing.B) {
	sc := benchScenario(b)
	overlay := sc.Meridian
	entry := overlay.Members()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := overlay.ClosestTo(entry, sc.Clients[i%len(sc.Clients)], 0)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathRepair runs the §IV-B overlay path-repair study.
func BenchmarkPathRepair(b *testing.B) {
	sc := benchScenario(b)
	var outcome *experiment.RepairOutcome
	for i := 0; i < b.N; i++ {
		var err error
		outcome, err = sc.RunPathRepair(experiment.RepairConfig{
			NumPaths: 100,
			Schedule: experiment.ProbeSchedule{Interval: 10 * time.Minute, Probes: 24},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(outcome.MeanBefore, "before_ms")
	b.ReportMetric(outcome.MeanOracle, "oracle_ms")
	b.ReportMetric(outcome.MeanCRP, "crp_ms")
	b.ReportMetric(outcome.MeanRandom, "random_ms")
}

// BenchmarkBootstrap runs the §VI cold-start study.
func BenchmarkBootstrap(b *testing.B) {
	sc := benchScenario(b)
	var points []experiment.BootstrapPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = sc.RunBootstrap(experiment.BootstrapConfig{ProbeCounts: []int{1, 5, 10, 30}})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points[0].MeanRank, "rank_1probe")
	b.ReportMetric(points[2].MeanRank, "rank_10probes")
	b.ReportMetric(points[3].MeanRank, "rank_30probes")
}
