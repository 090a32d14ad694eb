package experiment

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cdn"
)

func TestRunNameSelectionRejectsGlobalName(t *testing.T) {
	s := testScenario(t)
	rows, err := s.RunNameSelection(20, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 names (2 regular + 1 global)", len(rows))
	}
	for _, r := range rows {
		isGlobal := strings.Contains(r.Quality.Name, "akam-owned")
		if isGlobal && r.Kept {
			t.Errorf("owned-domain name %q survived selection: %+v", r.Quality.Name, r.Quality)
		}
		if !isGlobal && !r.Kept {
			t.Errorf("regular name %q was rejected: %+v", r.Quality.Name, r.Quality)
		}
		if isGlobal && r.Quality.FilteredFraction < 0.99 {
			t.Errorf("owned-domain name filtered fraction = %v, want ~1", r.Quality.FilteredFraction)
		}
	}
}

func TestRunNameSelectionDefaults(t *testing.T) {
	s := testScenario(t)
	rows, err := s.RunNameSelection(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows with default arguments")
	}
}

func TestRenderNameSelection(t *testing.T) {
	s := testScenario(t)
	rows, err := s.RunNameSelection(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderNameSelection(rows)
	for _, want := range []string{"adaptive CDN-name selection", "akam-owned", "kept"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestOverheadTable(t *testing.T) {
	rows := OverheadTable(cdn.AnswerTTL, []time.Duration{100 * time.Minute, 10 * time.Minute})
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	web := rows[0]
	if web.LookupsPerDay != 360 { // 2h browsing at one lookup per 20s
		t.Errorf("web lookups/day = %v, want 360", web.LookupsPerDay)
	}
	crp100 := rows[1]
	if crp100.LookupsPerDay != 14.4 {
		t.Errorf("100-min CRP lookups/day = %v, want 14.4", crp100.LookupsPerDay)
	}
	// The §VI claim: a 100-minute CRP client is a small fraction of an
	// ordinary web client's load.
	if crp100.RelativeToWeb > 0.05 {
		t.Errorf("100-min CRP load = %.1f%% of a web client, want ≤ 5%%", 100*crp100.RelativeToWeb)
	}
	passive := rows[len(rows)-1]
	if passive.LookupsPerDay != 0 || passive.RelativeToWeb != 0 {
		t.Errorf("passive row = %+v, want zero load", passive)
	}
}

func TestRenderOverhead(t *testing.T) {
	out := RenderOverhead(OverheadTable(0, []time.Duration{100 * time.Minute}))
	for _, want := range []string{"commensalism", "web client", "passive"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
