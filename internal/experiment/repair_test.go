package experiment

import (
	"strings"
	"testing"
	"time"
)

func TestRunPathRepairShape(t *testing.T) {
	s := testScenario(t)
	outcome, err := s.RunPathRepair(RepairConfig{
		NumPaths: 80,
		Schedule: ProbeSchedule{Interval: 10 * time.Minute, Probes: 24},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outcome.Results) != 80 {
		t.Fatalf("results = %d, want 80", len(outcome.Results))
	}

	// Ordering invariants: the original relay is optimal pre-failure, the
	// oracle is optimal post-failure, and every policy is ≥ the oracle.
	for _, r := range outcome.Results {
		if r.Before > r.Oracle+1e-6 && r.Oracle < r.Before {
			// Oracle excludes the failed relay, so it can only be ≥ Before
			// minus noise... actually Before uses the best relay, so Oracle
			// (second-best) must be ≥ Before.
			t.Fatalf("oracle %.1f better than the original best relay %.1f", r.Oracle, r.Before)
		}
		if r.CRP < r.Oracle-1e-6 || r.Random < r.Oracle-1e-6 {
			t.Fatalf("a repair beat the oracle: %+v", r)
		}
	}

	// The headline: CRP same-cluster repair preserves path quality far
	// better than random replacement.
	if outcome.MeanCRP >= outcome.MeanRandom {
		t.Errorf("CRP repair (%.1f ms) no better than random (%.1f ms)",
			outcome.MeanCRP, outcome.MeanRandom)
	}
	if outcome.FracCRPFound < 0.5 {
		t.Errorf("only %.0f%% of relays had cluster-mates", 100*outcome.FracCRPFound)
	}
	if outcome.FracCRPNearOracle < 0.5 {
		t.Errorf("only %.0f%% of CRP repairs stayed near the oracle repair",
			100*outcome.FracCRPNearOracle)
	}
}

func TestRunPathRepairValidation(t *testing.T) {
	sc, err := NewPaperWorld(WorldParams{Seed: 1, NumClients: 3, NumCandidates: 5, NumReplicas: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.RunPathRepair(RepairConfig{NumPaths: 5}); err == nil {
		t.Error("too few clients should fail")
	}
}

func TestRenderPathRepair(t *testing.T) {
	s := testScenario(t)
	outcome, err := s.RunPathRepair(RepairConfig{
		NumPaths: 20,
		Schedule: ProbeSchedule{Interval: 10 * time.Minute, Probes: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderPathRepair(outcome)
	for _, want := range []string{"path repair", "oracle repair", "crp same-cluster", "random repair"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
