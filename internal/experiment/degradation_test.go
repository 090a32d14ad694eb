package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/crp"
	"repro/internal/faults"
	"repro/internal/obs"
)

// smallDegradation returns a reduced-scale config the suite can run in
// seconds. The comparison is clean-vs-faulted under identical conditions,
// so paper-scale populations are unnecessary.
func smallDegradation(sc faults.Scenario) DegradationConfig {
	return DegradationConfig{
		Params:   WorldParams{Seed: 1, NumClients: 25, NumCandidates: 30, NumReplicas: 80},
		Schedule: ProbeSchedule{Interval: 10 * time.Minute, Probes: 10},
		Faults:   sc,
	}
}

// runDegradation wraps RunDegradation with the shared activation
// assertions: every fault kind in the scenario must actually have fired,
// both in the plane's own counters and in the process-wide obs registry.
func runDegradation(t *testing.T, cfg DegradationConfig) *DegradationOutcome {
	t.Helper()
	before := obs.Default().Snapshot()
	out, err := RunDegradation(cfg)
	if err != nil {
		t.Fatalf("RunDegradation: %v", err)
	}
	after := obs.Default().Snapshot()
	for _, f := range cfg.Faults.Faults {
		if out.Activations[f.Kind] == 0 {
			t.Errorf("fault %s never fired (activations: %v)", f.Kind, out.Activations)
		}
		name := "faults.activations." + string(f.Kind)
		if after.Counters[name] <= before.Counters[name] {
			t.Errorf("obs counter %s did not advance (%d -> %d)",
				name, before.Counters[name], after.Counters[name])
		}
	}
	return out
}

func TestDegradationNoFaultsIsNoOp(t *testing.T) {
	out, err := RunDegradation(smallDegradation(faults.Scenario{Seed: 99}))
	if err != nil {
		t.Fatal(err)
	}
	// An empty fault plane must be fully transparent: both sides of the
	// comparison are the same experiment.
	if out.Clean != out.Faulted {
		t.Fatalf("empty scenario changed the outcome:\nclean:   %+v\nfaulted: %+v", out.Clean, out.Faulted)
	}
	if out.Clean.MeanTop1Rank < 0 || out.Clean.Clusters == 0 {
		t.Fatalf("degenerate clean metrics: %+v", out.Clean)
	}
}

// within reports whether the faulted run stays inside an envelope: a mean
// top-1 rank at most rankSlack worse than clean, at most noSignal of clients
// without signal, and a good-cluster fraction at most clusterDrop below
// clean.
func within(o *DegradationOutcome, rankSlack, noSignal, clusterDrop float64) error {
	if o.Faulted.MeanTop1Rank > o.Clean.MeanTop1Rank+rankSlack {
		return fmt.Errorf("mean top-1 rank degraded %0.2f -> %0.2f, beyond slack %0.2f",
			o.Clean.MeanTop1Rank, o.Faulted.MeanTop1Rank, rankSlack)
	}
	if o.Faulted.FracNoSignal > noSignal {
		return fmt.Errorf("%0.3f of clients lost all signal, beyond %0.3f", o.Faulted.FracNoSignal, noSignal)
	}
	if drop := o.Clean.GoodClusterFrac - o.Faulted.GoodClusterFrac; drop > clusterDrop {
		return fmt.Errorf("good-cluster fraction dropped %0.3f -> %0.3f, beyond %0.3f",
			o.Clean.GoodClusterFrac, o.Faulted.GoodClusterFrac, clusterDrop)
	}
	return nil
}

func TestDegradationUnderProbeLoss(t *testing.T) {
	out := runDegradation(t, smallDegradation(faults.Scenario{
		Seed: 7,
		Faults: []faults.Fault{
			{Kind: faults.ProbeLoss, Rate: 0.3},
		},
	}))
	// 30% probe loss thins histories but the ratio-map signal must survive:
	// no client should end up signal-less, and ranking should degrade
	// modestly, not collapse.
	if err := within(out, 4, 0.1, 0.35); err != nil {
		t.Fatalf("outcome outside envelope: %v\nclean:   %+v\nfaulted: %+v", err, out.Clean, out.Faulted)
	}
}

func TestDegradationUnderLDNSOutage(t *testing.T) {
	// A mid-run outage takes out a third of the probe schedule.
	out := runDegradation(t, smallDegradation(faults.Scenario{
		Seed: 7,
		Faults: []faults.Fault{
			{Kind: faults.LDNSOutage, Start: faults.Duration(30 * time.Minute), Stop: faults.Duration(60 * time.Minute)},
		},
	}))
	if err := within(out, 4, 0.1, 0.35); err != nil {
		t.Fatalf("outcome outside envelope: %v\nclean:   %+v\nfaulted: %+v", err, out.Clean, out.Faulted)
	}
}

func TestDegradationUnderCDNFreezeAndChurn(t *testing.T) {
	out := runDegradation(t, smallDegradation(faults.Scenario{
		Seed: 13,
		Faults: []faults.Fault{
			// The CDN's map wedges for half an hour mid-run...
			{Kind: faults.CDNFreeze, Start: faults.Duration(20 * time.Minute), Stop: faults.Duration(50 * time.Minute)},
			// ...while a tenth of probe rounds go out through churned LDNS
			// identities.
			{Kind: faults.LDNSChurn, Rate: 0.1, Period: faults.Duration(10 * time.Minute)},
		},
	}))
	if err := within(out, 6, 0.15, 0.4); err != nil {
		t.Fatalf("outcome outside envelope: %v\nclean:   %+v\nfaulted: %+v", err, out.Clean, out.Faulted)
	}
}

func TestDegradationUnderStormAndSkew(t *testing.T) {
	out := runDegradation(t, smallDegradation(faults.Scenario{
		Seed: 19,
		Faults: []faults.Fault{
			{Kind: faults.Congestion, Target: "europe", ExtraMs: 120, Start: 0, Stop: faults.Duration(time.Hour)},
			{Kind: faults.ClockSkew, Skew: faults.Duration(5 * time.Minute)},
		},
	}))
	// CRP positions from redirection *ratios*, not latencies, so a regional
	// congestion storm and modest clock skew should barely dent accuracy —
	// the paper's core robustness claim.
	if err := within(out, 3, 0.05, 0.3); err != nil {
		t.Fatalf("outcome outside envelope: %v\nclean:   %+v\nfaulted: %+v", err, out.Clean, out.Faulted)
	}
}

func TestDegradationRerunIsByteIdentical(t *testing.T) {
	cfg := smallDegradation(faults.Scenario{
		Seed: 7,
		Faults: []faults.Fault{
			{Kind: faults.ProbeLoss, Rate: 0.25},
			{Kind: faults.CDNFlap, Period: faults.Duration(15 * time.Minute)},
		},
	})
	marshal := func() []byte {
		t.Helper()
		out, err := RunDegradation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := marshal(), marshal()
	if !bytes.Equal(a, b) {
		t.Fatalf("same scenario, different bytes:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

func TestDegradationStructuredErrors(t *testing.T) {
	// Invalid scenarios must surface as errors, not panics or silence.
	cfg := smallDegradation(faults.Scenario{
		Faults: []faults.Fault{{Kind: "meteor"}},
	})
	if _, err := RunDegradation(cfg); err == nil {
		t.Fatal("invalid fault kind accepted")
	}
	bad := smallDegradation(faults.Scenario{})
	bad.Schedule.Interval = -time.Second
	if _, err := RunDegradation(bad); err == nil {
		t.Fatal("invalid schedule accepted")
	}
}

// TestUnknownHostsKeepTheirAnswers forces hosts with no lookup — probe loss
// at rate 1 across Europe — through the ranking and clustering paths. Such a
// host is not in the service the experiments query, so each path answers
// for it on purpose: an unknown client ranks every candidate at zero
// similarity and counts toward FracNoSignal, an unknown candidate ranks as a
// zero-similarity candidate, and an unknown host clusters as a singleton.
// The degradation and clustering values are those the map-keyed ranking and
// SMF gave before the experiments moved onto crp.Service.
func TestUnknownHostsKeepTheirAnswers(t *testing.T) {
	lost := faults.Scenario{Seed: 7, Faults: []faults.Fault{
		{Kind: faults.ProbeLoss, Rate: 1, Target: "europe"},
	}}
	out := runDegradation(t, smallDegradation(lost))
	wantClean := DegradationMetrics{Clients: 25, MeanTop1Rank: 1.4, MeanTopKRTTMs: 55.90346872566833,
		MeanOptimalRTTMs: 33.44481197588294, Clusters: 5, GoodClusterFrac: 1}
	wantFaulted := DegradationMetrics{Clients: 25, MeanTop1Rank: 3.72, MeanTopKRTTMs: 69.59213921424868,
		MeanOptimalRTTMs: 33.44481197588294, FracNoSignal: 0.24, Clusters: 3, GoodClusterFrac: 1}
	if out.Clean != wantClean || out.Faulted != wantFaulted {
		t.Fatalf("degradation moved:\nclean   %+v\nfaulted %+v", out.Clean, out.Faulted)
	}

	w, err := NewWorld(WorldParams{Seed: 3, NumClients: 80, NumCandidates: 20, NumReplicas: 100})
	if err != nil {
		t.Fatal(err)
	}
	plane, err := faults.New(w.Topo, faults.Scenario{Seed: 3, Faults: lost.Faults})
	if err != nil {
		t.Fatal(err)
	}
	w.AttachFaults(plane)
	schedule := ProbeSchedule{Interval: 10 * time.Minute, Probes: 12}
	cluster := func(cfg ClusteringConfig) *ClusteringOutcome {
		t.Helper()
		o, err := w.RunClustering(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var unknown int
		for _, h := range o.Nodes {
			if w.Topo.Host(h).Region != "europe" {
				continue
			}
			unknown++
			for _, row := range o.CRPRows {
				if c := clusterOfNode(row.Clusters, w.NodeID(h)); c.Size() != 1 {
					t.Fatalf("%s: host %s with no lookup is in %v", row.Label, w.NodeID(h), c)
				}
			}
		}
		if unknown == 0 {
			t.Fatal("no clustered host lost its lookups")
		}
		return o
	}

	// Table I's defaults: one pass at t = 0.01, 0.1 and 0.5.
	o := cluster(ClusteringConfig{NumNodes: 50, Schedule: schedule})
	wantSummary := crp.Summary{TotalNodes: 50, NodesClustered: 23, FracClustered: 0.46, NumClusters: 7,
		MeanSize: 3.2857142857142856, MedianSize: 3, MaxSize: 6}
	for _, row := range o.CRPRows {
		if row.Summary != wantSummary || len(row.Clusters) != 34 {
			t.Errorf("%s: %+v over %d clusters, want %+v over 34", row.Label, row.Summary, len(row.Clusters), wantSummary)
		}
	}

	// With the second pass, an unknown host no longer takes a turn in the
	// pass's random promotion order: the map-keyed SMF drew it as an inert
	// center (c0017/c0048 in place of c0047/c0065 here), the service never
	// holds it. The unknown hosts stay singletons either way.
	o = cluster(ClusteringConfig{NumNodes: 70, Schedule: ProbeSchedule{Interval: 10 * time.Minute, Probes: 6},
		Thresholds: []float64{0.9}, FocusThreshold: 0.9, SecondPass: true})
	var centers []string
	for _, c := range o.CRPRows[0].Clusters {
		if c.Size() >= 2 {
			centers = append(centers, fmt.Sprintf("%s:%d", c.Center, c.Size()))
		}
	}
	want := "[c0013.client.sim.:4 c0002.client.sim.:2 c0010.client.sim.:2 c0025.client.sim.:2 " +
		"c0036.client.sim.:2 c0047.client.sim.:2 c0062.client.sim.:2 c0065.client.sim.:2]"
	if got := fmt.Sprint(centers); got != want {
		t.Errorf("second-pass clusters moved:\n got %s\nwant %s", got, want)
	}
}

// clusterOfNode returns the cluster holding node, or the zero Cluster.
func clusterOfNode(clusters []crp.Cluster, node crp.NodeID) crp.Cluster {
	for _, c := range clusters {
		if slices.Contains(c.Members, node) {
			return c
		}
	}
	return crp.Cluster{}
}
