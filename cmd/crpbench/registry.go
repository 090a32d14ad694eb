package main

import (
	"fmt"
	"strings"
)

// benchArgs is the parsed flag set handed to every experiment runner.
type benchArgs struct {
	quick  bool
	seed   int64
	out    string
	detOut string
	plan   string
}

// experimentSpec registers one experiment: name, a one-line description for
// -exp list, which optional flags it accepts, and its runner. Experiments
// used to be an ad-hoc if-chain in main, which meant every new experiment
// re-invented flag validation; the registry makes "add an experiment" a
// single table entry, and mismatched flags fail up front with the
// experiment's own contract instead of being silently ignored.
type experimentSpec struct {
	name string
	desc string
	// paper experiments share one evaluation world built in main and run
	// through the figure dispatcher; run is nil for them.
	paper bool
	// flags lists the optional flag names this experiment honors beyond
	// -exp and -out. Setting any other flag is an error.
	flags []string
	// require lists flags that must be set.
	require []string
	run     func(a benchArgs) error
}

func (s *experimentSpec) allows(flag string) bool {
	if flag == "exp" || flag == "out" {
		return true
	}
	for _, f := range s.flags {
		if f == flag {
			return true
		}
	}
	return false
}

// validateFlags checks the explicitly-set flag names against the spec.
func (s *experimentSpec) validateFlags(set map[string]bool) error {
	for f := range set {
		if !s.allows(f) {
			return fmt.Errorf("experiment %q does not take -%s (accepts: %s)",
				s.name, f, strings.Join(append([]string{"out"}, s.flags...), ", "))
		}
	}
	for _, f := range s.require {
		if !set[f] {
			return fmt.Errorf("experiment %q requires -%s", s.name, f)
		}
	}
	return nil
}

// paperSpec registers a figure/table experiment driven by the shared
// evaluation world.
func paperSpec(name, desc string) experimentSpec {
	return experimentSpec{name: name, desc: desc, paper: true, flags: []string{"quick", "seed"}}
}

// experiments is the registry, in display order for -exp list.
var experiments = []experimentSpec{
	paperSpec("all", "every paper experiment below, off one world"),
	paperSpec("fig4", "closest-node selection: latency to the selected server vs Meridian and optimal"),
	paperSpec("fig5", "closest-node selection: relative error vs optimal"),
	paperSpec("table1", "SMF clustering quality vs the metro ground truth"),
	paperSpec("fig6", "intra- vs inter-cluster distance CDF, one t=0.1 clustering"),
	paperSpec("fig7", "good clusters per diameter bucket, CRP vs ASN, one t=0.1 clustering"),
	paperSpec("fig8", "average rank vs probe interval"),
	paperSpec("fig9", "average rank vs probe window size"),
	paperSpec("repair", "path-repair candidate ranking study"),
	paperSpec("sec6", "name selection, overhead and bootstrap studies"),
	paperSpec("ablations", "similarity/center/coverage/baseline/stability ablations"),
	{
		name: "faults", desc: "accuracy degradation across probe-loss x CDN-staleness",
		flags: []string{"quick", "seed"},
		run:   func(a benchArgs) error { return runFaultSweep(a.quick, a.seed, a.out) },
	},
	{
		name: "scale", desc: "million-client ingest with prefix aggregation on/off",
		flags: []string{"quick", "seed", "det-out"},
		run:   func(a benchArgs) error { return runScale(a.quick, a.seed, a.out, a.detOut) },
	},
	{
		name: "fusion", desc: "multi-CDN fused kernel vs single-CDN baselines",
		flags: []string{"quick", "seed"},
		run:   func(a benchArgs) error { return runFusion(a.quick, a.seed, a.out) },
	},
	{
		name: "drift", desc: "CDN-change detector precision/recall vs the fault plane's truth schedule",
		flags: []string{"quick", "seed", "det-out"},
		run:   func(a benchArgs) error { return runDriftBench(a.quick, a.seed, a.out, a.detOut) },
	},
	{
		name: "scenario", desc: "declarative scenario runner: drive a daemon mesh from a JSON plan",
		flags: []string{"plan", "det-out"}, require: []string{"plan"},
		run: func(a benchArgs) error { return runScenario(a.plan, a.out, a.detOut) },
	},
}

func findExperiment(name string) *experimentSpec {
	for i := range experiments {
		if experiments[i].name == name {
			return &experiments[i]
		}
	}
	return nil
}

func experimentNames() []string {
	names := make([]string, len(experiments))
	for i := range experiments {
		names[i] = experiments[i].name
	}
	return names
}

// renderExperimentList is the -exp list output.
func renderExperimentList() string {
	var b strings.Builder
	b.WriteString("registered experiments:\n")
	for i := range experiments {
		s := &experiments[i]
		extra := ""
		if len(s.flags) > 0 || len(s.require) > 0 {
			required := make(map[string]bool, len(s.require))
			for _, f := range s.require {
				required[f] = true
			}
			var fl []string
			for _, f := range s.flags {
				if required[f] {
					fl = append(fl, "-"+f+" (required)")
				} else {
					fl = append(fl, "-"+f)
				}
			}
			extra = "  [" + strings.Join(fl, " ") + "]"
		}
		fmt.Fprintf(&b, "  %-10s %s%s\n", s.name, s.desc, extra)
	}
	return b.String()
}
