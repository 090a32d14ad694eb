package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// spec is BENCHMARK.json, the file -compare takes its bounds from.
type spec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// side is one file's runs of one (workload, metric).
type side struct {
	values []float64
	median float64
	spread float64 // interquartile range as a share of the median
}

func newSide(values []float64) side {
	s := side{values: values, median: median(values)}
	if len(values) >= 4 && s.median != 0 {
		sorted := slices.Clone(values)
		slices.Sort(sorted)
		q1, q3 := sorted[len(sorted)/4], sorted[len(sorted)*3/4]
		s.spread = (q3 - q1) / s.median
	} else if len(values) >= 2 && s.median != 0 {
		s.spread = (slices.Max(values) - slices.Min(values)) / s.median
	}
	return s
}

const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict applies the guide's rule: worse when the new median is worse than
// the old by more than the bound; unresolved when it is not but either side's
// spread is wider than the bound, unless every new run beats every old one.
func verdict(m metricDef, old, new side) string {
	worsening := 0.0
	if old.median != 0 {
		worsening = (new.median - old.median) / old.median
		if m.Better == higher {
			worsening = -worsening
		}
	}
	switch {
	case worsening > m.Bound:
		return verdictWorse
	case max(old.spread, new.spread) <= m.Bound:
		return verdictOK
	}
	allBetter := slices.Min(new.values) > slices.Max(old.values)
	if m.Better == lower {
		allBetter = slices.Max(new.values) < slices.Min(old.values)
	}
	if allBetter {
		return verdictOK
	}
	return verdictUnresolved
}

// compareFiles prints one row per (workload, end-to-end metric) and returns
// an error when any row is worse or NEW failed a larger share of its
// operations than OLD.
func compareFiles(specPath, oldPath, newPath string, w io.Writer) error {
	var sp spec
	if err := readJSON(specPath, &sp); err != nil {
		return fmt.Errorf("bounds: %w", err)
	}
	var old, new report
	if err := readJSON(oldPath, &old); err != nil {
		return err
	}
	if err := readJSON(newPath, &new); err != nil {
		return err
	}
	collect := func(rep *report, workload, metric string) []float64 {
		var v []float64
		for _, r := range rep.Runs {
			if x, ok := r.EndToEnd[metric]; ok && r.Workload == workload {
				v = append(v, x)
			}
		}
		return v
	}
	failShare := func(rep *report, workload string) float64 {
		var attempted, failed int64
		for _, r := range rep.Runs {
			if r.Workload == workload {
				attempted, failed = attempted+r.Attempted, failed+r.Failed
			}
		}
		return float64(failed) / float64(max(attempted, 1))
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told (median of n)\tnew (median of n)\tchange\tbound\tverdict")
	bad := 0
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			o, n := collect(&old, wl.Name, m.Name), collect(&new, wl.Name, m.Name)
			if len(o) == 0 || len(n) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%d runs\t%d runs\t\t\tmissing\n", wl.Name, m.Name, len(o), len(n))
				bad++
				continue
			}
			was, now := newSide(o), newSide(n)
			v := verdict(m, was, now)
			if v == verdictWorse {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s (%d)\t%.4g %s (%d)\t%+.1f%% of %.4g\t%.0f%% worse\t%s\n",
				wl.Name, m.Name, was.median, m.Unit, len(o), now.median, m.Unit, len(n),
				100*(now.median-was.median)/was.median, was.median, 100*m.Bound, v)
		}
		if fo, fn := failShare(&old, wl.Name), failShare(&new, wl.Name); fn > fo {
			fmt.Fprintf(tw, "%s\tfailed share\t%.4g\t%.4g\t\tno higher\t%s\n", wl.Name, fo, fn, verdictWorse)
			bad++
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d row(s) worse or missing", bad)
	}
	return nil
}
