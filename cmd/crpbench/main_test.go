package main

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-quick", "-exp", "fig99"}); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag should fail")
	}
}

func TestRunQuickSingleExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	// One cheap experiment from each family exercises the full dispatch.
	for _, exp := range []string{"table1", "repair"} {
		if err := run([]string{"-quick", "-exp", exp}); err != nil {
			t.Errorf("run -quick -exp %s: %v", exp, err)
		}
	}
}

// TestObsSnapshotPrintsEveryFoldedField pins the trail's gauge rule: a zero
// gauge is left out, except a field of a folded family, which prints all
// six.
func TestObsSnapshotPrintsEveryFoldedField(t *testing.T) {
	snap := obs.Snapshot{Gauges: map[string]int64{
		"fam.0.nodes": 0, "fam.1.nodes": 4, "idle": 0, "busy.max": 0,
	}}
	snap.SummarizeGaugeFamily("fam.", ".nodes", "fam_nodes")
	out := renderObsSnapshot("t", snap)
	for _, f := range obs.SummaryFields {
		if !strings.Contains(out, "fam_nodes."+f+" ") {
			t.Errorf("summary field %s missing:\n%s", f, out)
		}
	}
	if strings.Contains(out, "idle") || strings.Contains(out, "busy.max") {
		t.Errorf("zero gauges outside a folded family must not print:\n%s", out)
	}
}
