package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"

	"repro/internal/crpdaemon"
	"repro/internal/obs"
)

// benchMeta is the provenance block embedded in every BENCH_*.json crpbench
// emits. Bench files used to be bare numbers, which made trajectory
// comparisons across commits guesswork: a regression is indistinguishable
// from a run at a different scale, seed, or host width. Every report now
// records exactly how it was produced.
type benchMeta struct {
	Experiment string `json:"experiment"`
	Seed       int64  `json:"seed"`
	Quick      bool   `json:"quick"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	// Scale holds the experiment-specific size knobs (node counts, client
	// counts, durations in seconds) the run actually used, post -quick and
	// flag overrides.
	Scale map[string]int64 `json:"scale,omitempty"`
}

// newBenchMeta captures the run's provenance. scale holds the
// experiment-specific size knobs actually used (post -quick and flag
// overrides); it is stored as-is, so callers may keep adding to it until
// the report is written.
func newBenchMeta(experiment string, seed int64, quick bool, scale map[string]int64) benchMeta {
	if scale == nil {
		scale = make(map[string]int64)
	}
	return benchMeta{
		Experiment: experiment,
		Seed:       seed,
		Quick:      quick,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Scale:      scale,
	}
}

// writeReport marshals a bench report to indented JSON (trailing newline, so
// reruns diff cleanly against checked-in files) and writes it to out. A
// no-op when out is empty: every experiment accepts -out optionally.
func writeReport(out string, report any) error {
	if out == "" {
		return nil
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", out)
	return nil
}

// renderObsSnapshot formats the non-zero instruments of a snapshot for the
// terminal: counters and gauges verbatim, histograms by count only — their
// wall-clock means and quantiles would differ from run to run. A folded
// gauge family prints all six summary fields, zeros too, so a reader sees
// every field of the summary.
func renderObsSnapshot(label string, snap obs.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "obs snapshot [%s]\n", label)
	names := make([]string, 0, len(snap.Counters))
	for n, v := range snap.Counters {
		if v > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-36s %d\n", n, snap.Counters[n])
	}
	names = names[:0]
	for n, v := range snap.Gauges {
		if v != 0 || summaryField(n, snap.Gauges) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-36s %d (gauge)\n", n, snap.Gauges[n])
	}
	names = names[:0]
	for n, h := range snap.Histograms {
		if h.Count > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-36s count=%d\n", n, snap.Histograms[n].Count)
	}
	return b.String()
}

// summaryField reports whether gauge n is a field of a folded family: its
// last segment is a summary field and the family's count is present.
func summaryField(n string, gauges map[string]int64) bool {
	dot := strings.LastIndexByte(n, '.')
	if dot < 0 || !slices.Contains(obs.SummaryFields[:], n[dot+1:]) {
		return false
	}
	_, ok := gauges[n[:dot]+".count"]
	return ok
}

// dumpObs prints the process-wide registry after an experiment, its gauge
// families summarized as crpd's stats op exports them, so every crpbench run
// leaves a metrics trail alongside its tables that is as deterministic as
// the tables.
func dumpObs(label string) {
	snap := obs.Default().Snapshot()
	crpdaemon.SummarizeFamilies(&snap)
	fmt.Print(renderObsSnapshot(label, snap))
	fmt.Println()
}
