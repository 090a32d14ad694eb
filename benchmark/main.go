// Command benchmark is the repository's one benchmark: five named workloads
// over the crpd request path (real UDP on loopback) and the gossip delta
// path (the in-memory mesh), every layer timed from outside through its
// public functions. README.md in this directory says what each workload and
// metric is for; BENCHMARK.json at the repository root repeats the names.
//
//	go run ./benchmark -seed 1 -out FILE          every workload, traced
//	go run ./benchmark -workload rpc_small -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -compare OLD.json NEW.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// options is one run's configuration. Only seed, window and trace come from
// the command line; the rest is fixed for the benchmark and shrunk by tests.
type options struct {
	seed   int64
	window time.Duration // the measured window, the same for every workload
	warm   time.Duration // request-path warm-up load before the window
	// allocPhase is how long the primary stream runs alone after the window,
	// on workloads with a background stream, to count its mallocs.
	allocPhase time.Duration
	setups     int // set-ups per run; setup_s and heap_mb are their medians
	// setupTime is how much set-up a run times at least: a set-up of a few
	// hundred milliseconds is repeated beyond setups until this much is spent,
	// so that its median is as steady as a long set-up's.
	setupTime time.Duration
	checks    int // seeded requests checked against the model before the window
	// driftTol is how far the store's node count and mean vector length may
	// move over a window that claims to be stationary.
	driftTol float64
	sz       sizes

	trace       bool
	traceBudget time.Duration // request-path traced pass: time and request caps
	traceReqs   int
	gossipWarm  int // gossip warm-up and traced pass are counted in cycles,
	gossipTrace int // so the traced counts repeat exactly
}

func fullOptions(seed int64, seconds int, trace bool) options {
	return options{
		seed: seed, window: time.Duration(seconds) * time.Second, warm: 2 * time.Second, allocPhase: time.Second,
		setups: 3, setupTime: 2 * time.Second, checks: 1000, driftTol: 0.01, sz: fullSizes,
		trace: trace, traceBudget: 3 * time.Second, traceReqs: 20_000,
		gossipWarm: 10, gossipTrace: 24,
	}
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Transport string             `json:"transport"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Levels is the percentile each latency metric really reports: a sample
	// too small for the named one reports the highest it supports.
	Levels   map[string]float64 `json:"percentile_levels"`
	Findings []string           `json:"findings,omitempty"`

	tracer *tracer
}

func newResult(workload string, opt options, transport string) *runResult {
	return &runResult{Workload: workload, Seed: opt.seed, Seconds: opt.window.Seconds(), Transport: transport, EndToEnd: zeroed(endToEnd)}
}

// report is the -out file.
type report struct {
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu"`
	Runs       []runResult `json:"runs"`
}

func runWorkload(name string, opt options) (*runResult, error) {
	switch name {
	case "rpc_small", "scan_under_ingest", "ingest_heavy":
		return runCrpd(newMetroWorkload(name, opt.seed, opt.sz), opt)
	case "agg_closest":
		return runCrpd(newAggWorkload(opt.seed, opt.sz), opt)
	case "gossip_replicate":
		return runGossip(opt)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// resultLine is the contract's last line of standard output.
func resultLine(r *runResult, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, r.EndToEnd
	if traced {
		defs, vals = perLayer, r.PerLayer
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		ms[d.Name] = value{vals[d.Name], d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(line)
}

func printTable(r *runResult) {
	fmt.Printf("\n%s  seed %d  window %.0fs  %s\n", r.Workload, r.Seed, r.Seconds, r.Transport)
	show := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			note := ""
			if l, ok := r.Levels[d.Name]; ok {
				note = fmt.Sprintf("  (reported at p%.0f)", l*100)
			}
			fmt.Printf("  %-32s %16.4f %-6s%s\n", d.Name, vals[d.Name], d.Unit, note)
		}
	}
	show(endToEnd, r.EndToEnd)
	if r.PerLayer != nil {
		show(perLayer, r.PerLayer)
	}
	fmt.Printf("  correct %v  attempted %d  failed %d\n", r.Correct, r.Attempted, r.Failed)
	for _, f := range r.Findings {
		fmt.Printf("  %s\n", f)
	}
}

func run() error {
	workload := flag.String("workload", "", "run one workload (default: all five)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 10, "measured window, the same for every workload")
	trace := flag.Int("trace", 1, "1: add the traced pass and report per-layer metrics; 0: end-to-end metrics only")
	traceOut := flag.String("trace-out", "", "write the traced pass's spans here, one JSON object a line")
	out := flag.String("out", "", "write every run's metrics to this JSON file")
	runs := flag.Int("runs", 1, "runs per workload; run i uses seed+i")
	compare := flag.Bool("compare", false, "compare two -out files: -compare OLD.json NEW.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes OLD.json NEW.json")
		}
		return compareFiles("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d: the window is at least a second", *seconds)
	}
	names := []string{*workload}
	if *workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if !slices.ContainsFunc(workloads, func(w workloadDef) bool { return w.Name == *workload }) {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	traced := *trace != 0

	rep := report{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	fmt.Printf("benchmark: %s, GOMAXPROCS %d, NumCPU %d, seed %d, window %ds\n", rep.GoVersion, rep.GOMAXPROCS, rep.NumCPU, *seed, *seconds)
	var spans *os.File
	if *traceOut != "" {
		var err error
		if spans, err = os.Create(*traceOut); err != nil {
			return err
		}
		defer spans.Close()
	}
	var last *runResult
	wrong := 0
	for i := 0; i < *runs; i++ {
		for _, name := range names {
			r, err := runWorkload(name, fullOptions(*seed+int64(i), *seconds, traced))
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			printTable(r)
			if !r.Correct || r.Failed > 0 {
				wrong++
			}
			if spans != nil && r.tracer != nil {
				if err := r.tracer.write(spans, r.Workload, r.Seed); err != nil {
					return err
				}
			}
			r.tracer = nil // let the spans go before the next world is built
			rep.Runs = append(rep.Runs, *r)
			last = r
		}
	}
	if spans != nil {
		if err := spans.Close(); err != nil {
			return err
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *workload != "" {
		fmt.Println(resultLine(last, traced))
	}
	if wrong > 0 {
		return fmt.Errorf("%d run(s) gave wrong or failed answers", wrong)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
