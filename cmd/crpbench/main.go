// Command crpbench regenerates every table and figure from the CRP paper's
// evaluation, plus this repository's ablations, on the simulated wide-area
// substrate. Each experiment prints the same rows/series the paper reports.
//
// Usage:
//
//	crpbench -exp list
//	crpbench [-exp NAME] [-quick] [-seed N] [-out FILE] [-det-out FILE] [-plan FILE]
//
// Experiments register in the table in registry.go; -exp list prints every
// registered experiment with the flags it accepts. The paper experiments
// (fig4..ablations, or all) share one evaluation world. The
// standalone experiments are this repository's own: faults sweeps the
// deterministic fault-injection plane; scale ingests a million-client
// population with prefix aggregation on and off; fusion scores the fused
// multi-CDN kernel against single-CDN paths; drift scores the CDN-change
// detector against the fault plane's truth schedule; scenario drives a real
// daemon mesh from a declarative JSON plan (see scenarios/README.md) and
// gates it on the plan's envelope. Request-path and gossip-path timing is
// the benchmark/ harness's job, not crpbench's.
//
// Every experiment dumps the process-wide obs metrics snapshot when it
// finishes, so each run leaves instrumentation data alongside its tables.
//
// The default configuration matches the paper's scale (1,000 client DNS
// servers, 240 candidate servers); -quick runs a reduced configuration for
// a fast smoke pass.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "crpbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("crpbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run, or 'list' to enumerate them")
	a := benchArgs{}
	fs.BoolVar(&a.quick, "quick", false, "run a reduced-scale configuration")
	fs.Int64Var(&a.seed, "seed", 1, "simulation seed")
	fs.StringVar(&a.out, "out", "", "write the experiment's report JSON to this file")
	fs.StringVar(&a.detOut, "det-out", "", "also write the timing-independent report slice to this file (for same-seed determinism checks)")
	fs.StringVar(&a.plan, "plan", "", "scenario experiment: the JSON plan file to run")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *exp == "list" {
		fmt.Print(renderExperimentList())
		return nil
	}
	spec := findExperiment(*exp)
	if spec == nil {
		return fmt.Errorf("unknown experiment %q (want one of: %s, or list)",
			*exp, strings.Join(experimentNames(), " "))
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := spec.validateFlags(set); err != nil {
		return err
	}
	if !spec.paper {
		return spec.run(a)
	}
	return runPaper(*exp, a)
}

// runPaper executes the paper experiments off one shared world;
// exp "all" runs every figure in sequence.
func runPaper(exp string, a benchArgs) error {
	params := experiment.DefaultWorldParams()
	params.Seed = a.seed
	sweepCfg := experiment.RankSweepConfig{}
	probeCfg := experiment.ClosestNodeConfig{}
	clusterCfg := experiment.ClusteringConfig{SecondPass: true}
	if a.quick {
		// Keep the candidate density close to the paper's: CRP's Top-K
		// averaging needs several candidates per metro to be meaningful.
		params.NumClients = 150
		params.NumCandidates = 240
		params.NumReplicas = 500
		sweepCfg.Duration = 2 * 24 * time.Hour
		sweepCfg.CandidateInterval = 30 * time.Minute
		probeCfg.Schedule = experiment.ProbeSchedule{Interval: 10 * time.Minute, Probes: 36}
		clusterCfg.NumNodes = 100
		clusterCfg.Schedule = probeCfg.Schedule
	}

	fmt.Printf("building scenario: %d clients, %d candidates, %d replicas, seed %d\n",
		params.NumClients, params.NumCandidates, params.NumReplicas, params.Seed)
	start := time.Now()
	sc, err := experiment.NewPaperWorld(params)
	if err != nil {
		return err
	}
	fmt.Printf("scenario ready in %v\n\n", time.Since(start).Round(time.Millisecond))

	want := func(name string) bool { return exp == "all" || exp == name }

	var closest *experiment.ClosestNodeOutcome
	if want("fig4") || want("fig5") {
		closest, err = sc.RunClosestNode(probeCfg)
		if err != nil {
			return fmt.Errorf("closest-node experiment: %w", err)
		}
	}
	if want("fig4") {
		fmt.Println(experiment.RenderFig4(closest))
	}
	if want("fig5") {
		fmt.Println(experiment.RenderFig5(closest))
	}
	if want("fig4") || want("fig5") {
		dumpObs("closest-node experiment")
	}

	if want("table1") || want("fig6") || want("fig7") {
		clusters, err := sc.RunClustering(clusterCfg)
		if err != nil {
			return fmt.Errorf("clustering experiment: %w", err)
		}
		if want("table1") {
			fmt.Println(experiment.RenderTable1(clusters))
		}
		if want("fig6") {
			fmt.Println(experiment.RenderFig6(clusters))
		}
		if want("fig7") {
			fmt.Println(experiment.RenderFig7(clusters))
		}
		dumpObs("clustering experiment")
	}

	if want("fig8") {
		intervals := []time.Duration{20 * time.Minute, 100 * time.Minute, 500 * time.Minute, 2000 * time.Minute}
		series, err := sc.RunProbeIntervalSweep(intervals, sweepCfg)
		if err != nil {
			return fmt.Errorf("probe-interval sweep: %w", err)
		}
		fmt.Println(experiment.RenderRankSeries(
			"Fig. 8 — average rank vs probe interval (lower rank is better)", series))
		dumpObs("probe-interval sweep")
	}

	if want("fig9") {
		series, err := sc.RunWindowSweep([]int{0, 30, 10, 5}, 10*time.Minute, sweepCfg)
		if err != nil {
			return fmt.Errorf("window sweep: %w", err)
		}
		fmt.Println(experiment.RenderRankSeries(
			"Fig. 9 — average rank vs probe window size", series))
		dumpObs("window sweep")
	}

	if want("repair") {
		repairCfg := experiment.RepairConfig{Schedule: probeCfg.Schedule}
		if a.quick {
			repairCfg.NumPaths = 60
		}
		outcome, err := sc.RunPathRepair(repairCfg)
		if err != nil {
			return fmt.Errorf("path repair: %w", err)
		}
		fmt.Println(experiment.RenderPathRepair(outcome))
		dumpObs("path repair")
	}

	if want("sec6") {
		rows, err := sc.RunNameSelection(30, 10)
		if err != nil {
			return fmt.Errorf("name selection: %w", err)
		}
		fmt.Println(experiment.RenderNameSelection(rows))
		fmt.Println(experiment.RenderOverhead(experiment.OverheadTable(0, []time.Duration{
			10 * time.Minute, 100 * time.Minute, 2000 * time.Minute,
		})))
		points, err := sc.RunBootstrap(experiment.BootstrapConfig{})
		if err != nil {
			return fmt.Errorf("bootstrap study: %w", err)
		}
		fmt.Println(experiment.RenderBootstrap(points, 10*time.Minute))
		dumpObs("sec6 studies")
	}

	if want("ablations") {
		if err := runAblations(sc, params, probeCfg, clusterCfg); err != nil {
			return err
		}
		dumpObs("ablations")
	}

	fmt.Printf("total runtime %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func runAblations(sc *experiment.PaperWorld, params experiment.WorldParams,
	probeCfg experiment.ClosestNodeConfig, clusterCfg experiment.ClusteringConfig) error {

	rows, err := sc.RunSimilarityAblation(probeCfg)
	if err != nil {
		return fmt.Errorf("similarity ablation: %w", err)
	}
	fmt.Println(experiment.RenderSimilarityAblation(rows))

	centers, err := sc.RunCenterAblation(clusterCfg)
	if err != nil {
		return fmt.Errorf("center ablation: %w", err)
	}
	fmt.Println(experiment.RenderCenterAblation(centers))

	base := params
	counts := []int{params.NumReplicas / 4, params.NumReplicas / 2, params.NumReplicas, params.NumReplicas * 2}
	points, err := experiment.RunCoverageSweep(base, counts, probeCfg)
	if err != nil {
		return fmt.Errorf("coverage sweep: %w", err)
	}
	fmt.Println(experiment.RenderCoverageSweep(points))

	baselines, err := sc.RunBaselineComparison(probeCfg)
	if err != nil {
		return fmt.Errorf("baseline comparison: %w", err)
	}
	fmt.Println(experiment.RenderBaselineComparison(baselines))

	stability, err := sc.RunClusterStability(experiment.StabilityConfig{})
	if err != nil {
		return fmt.Errorf("cluster stability: %w", err)
	}
	fmt.Println(experiment.RenderClusterStability(stability))
	return nil
}
