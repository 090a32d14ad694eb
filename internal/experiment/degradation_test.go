package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

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
