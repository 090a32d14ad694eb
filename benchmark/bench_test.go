package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/crpdaemon"
)

var tinySizes = sizes{metros: 8, perMetro: 25, aggClients: 4000, agg24s: 250, gossipObserves: 20}

func tinyOptions(seed int64) options {
	return options{
		seed: seed, window: 200 * time.Millisecond, warm: 30 * time.Millisecond, allocPhase: 50 * time.Millisecond,
		setups: 1, checks: 40, sz: tinySizes,
		// 200 nodes re-drawn from their distributions move their mean vector
		// length by a few percent; 50k do not.
		driftTol: 0.25,
		trace:    true, traceBudget: 150 * time.Millisecond, traceReqs: 400,
		gossipWarm: 2, gossipTrace: 3,
	}
}

// tinyRuns runs every workload once at tiny scale and shares the results.
var tinyRuns = sync.OnceValues(func() (map[string]*runResult, error) {
	out := map[string]*runResult{}
	for _, w := range workloads {
		r, err := runWorkload(w.Name, tinyOptions(7))
		if err != nil {
			return nil, err
		}
		out[w.Name] = r
	}
	return out, nil
})

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	runs, err := tinyRuns()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, w := range workloads {
		r := runs[w.Name]
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w.Name, r.Correct, r.Attempted, r.Failed, r.Findings)
		}
		if !strings.Contains(r.Transport, "loopback UDP") && !strings.Contains(r.Transport, "in-memory mesh") {
			t.Errorf("%s: transport %q names neither link", w.Name, r.Transport)
		}
		for _, traced := range []bool{false, true} {
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int64
				Failed    *int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(resultLine(r, traced)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s: result line: %v", w.Name, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s: metric %s missing or mis-united: %+v", w.Name, d.Name, m)
				}
				if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
					t.Errorf("metric %q unit %q outside the contract's charset", d.Name, d.Unit)
				}
				if !traced && (m.Value == nil || *m.Value <= 0) {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
		}
	}
}

func TestSameSeedSameStreamAndGossipCounts(t *testing.T) {
	runs, err := tinyRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"scan_under_ingest", "gossip_replicate"} {
		again, err := runWorkload(name, tinyOptions(7))
		if err != nil {
			t.Fatal(err)
		}
		other, err := runWorkload(name, tinyOptions(8))
		if err != nil {
			t.Fatal(err)
		}
		first := runs[name].PerLayer
		if first["loadgen.stream_hash"] != again.PerLayer["loadgen.stream_hash"] {
			t.Errorf("%s: same seed, stream hashes %v and %v", name, first["loadgen.stream_hash"], again.PerLayer["loadgen.stream_hash"])
		}
		if first["loadgen.stream_hash"] == other.PerLayer["loadgen.stream_hash"] {
			t.Errorf("%s: seeds 7 and 8 share stream hash %v", name, first["loadgen.stream_hash"])
		}
		for _, d := range perLayer {
			if strings.HasPrefix(d.Name, "peering.") && d.Unit != "us" && first[d.Name] != again.PerLayer[d.Name] {
				t.Errorf("%s: same seed, %s = %v then %v", name, d.Name, first[d.Name], again.PerLayer[d.Name])
			}
		}
	}
	if runs["gossip_replicate"].PerLayer["peering.datagrams_per_cycle"] == 0 {
		t.Error("gossip_replicate counted no datagrams")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
	}{
		{19, 0.50, 0}, {20, 0.50, 0.50}, {99, 0.90, 0.50}, {100, 0.90, 0.90},
		{999, 0.99, 0.90}, {1000, 0.99, 0.99}, {1000, 0.90, 0.90}, {5, 0.99, 0},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	if v, l := percentile(sorted, 0.99); v != 90 || l != 0.90 {
		t.Errorf("p99 of 100 samples = %v at level %v, want the p90 (90) at 0.90", v, l)
	}
	if v, l := percentile(sorted[:10], 0.90); v != 5 || l != 0 {
		t.Errorf("p90 of 10 samples = %v at level %v, want the median (5) at level 0", v, l)
	}
}

func TestSlicesTakeTheMedianSecond(t *testing.T) {
	// Five seconds of one op a millisecond at 100 us, but second 2 stalls:
	// a tenth of the ops, ten times as slow.
	var ls, short laneStats
	for s := 0; s < 5; s++ {
		n, lat := 1000, 100*time.Microsecond
		if s == 2 {
			n, lat = 100, time.Millisecond
		}
		for i := 0; i < n; i++ {
			at := time.Duration(s)*time.Second + time.Duration(i)*time.Second/time.Duration(n)
			ls.record(at, lat, 1)
			if i < 50 {
				short.record(at, lat, 1)
			}
		}
	}
	c := cutLanes(5*time.Second, 5, &ls)
	if got := c.rate(); got != 1000 {
		t.Errorf("rate = %v, want the median second's 1000", got)
	}
	if c.perSec >= 1000 {
		t.Errorf("whole-window rate %v should feel the stall", c.perSec)
	}
	if v, l := c.percentile(0.90); v != 100 || l != 0.90 {
		t.Errorf("p90 = %v at %v, want 100 at 0.90", v, l)
	}
	if v, _ := percentile(c.whole, 0.99); v != 1000 {
		t.Errorf("whole-window p99 = %v, want the stall's 1000", v)
	}
	// Seconds of 50 samples support neither a p90 nor a rate of their own:
	// both come from the whole window.
	c = cutLanes(5*time.Second, 5, &short)
	if v, l := c.percentile(0.90); v != 1000 || l != 0.90 {
		t.Errorf("whole-window p90 = %v at %v, want the stall's 1000 at 0.90", v, l)
	}
	if got := c.rate(); got != 50 {
		t.Errorf("whole-window rate = %v, want 250 samples over 5 s", got)
	}
}

func TestWrongModelTripsEveryCheck(t *testing.T) {
	wl := newMetroWorkload("scan_under_ingest", 3, tinySizes)
	s, err := wl.setup()
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	w := newMetroWorld(3, tinySizes) // the same world the workload serves
	checks := map[string]func() checkResult{
		"similarity": func() checkResult { return w.checkSimilarity(s.ask, 3, 200) },
		"scan":       func() checkResult { return w.checkScan(s.ask, 3, 20, 5) },
		"mirror":     func() checkResult { return w.checkMirror(s.ask) },
	}
	for name, check := range checks {
		if c := check(); c.failed != 0 || c.attempted == 0 {
			t.Fatalf("%s check fails on a faithful model: %+v", name, c)
		}
	}
	// One wrong replica in every node's model window: the service no longer
	// agrees with the model anywhere.
	far := probe{uint16(len(w.replicas) - 1), uint16(len(w.replicas) - 1)}
	for i := range w.nodes {
		w.seeded[i*window] = far
	}
	w.resetMirror()
	for name, check := range checks {
		if c := check(); c.failed == 0 {
			t.Errorf("%s check passes against a wrong model", name)
		}
	}
	// And a reply that is not an answer counts as a failure in the loop.
	if validRanked(5)(&crpdaemon.Response{OK: true}) == "" || validSimilarity(&crpdaemon.Response{OK: true}) == "" || validBatch(2)(&crpdaemon.Response{OK: true, Batch: []crpdaemon.Response{{OK: true}, {}}}) == "" {
		t.Error("a malformed reply was taken for an answer")
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	sp := write("spec.json", spec{
		Workloads: []workloadDef{{Name: "w"}},
		EndToEnd:  []metricDef{{"ops_per_s", "1/s", higher, 0.10}, {"lat_p50_us", "us", lower, 0.10}},
	})
	rep := func(failed int64, ops, lat []float64) report {
		var r report
		for i := range ops {
			r.Runs = append(r.Runs, runResult{Workload: "w", Attempted: 100, Failed: failed,
				EndToEnd: map[string]float64{"ops_per_s": ops[i], "lat_p50_us": lat[i]}})
		}
		return r
	}
	steady := []float64{100, 101, 99, 100}
	base := write("base.json", rep(0, steady, steady))
	for _, c := range []struct {
		name       string
		new        report
		ops, lat   string
		wantsError bool
	}{
		{"same", rep(0, steady, steady), verdictOK, verdictOK, false},
		{"slower", rep(0, []float64{80, 81, 79, 80}, steady), verdictWorse, verdictOK, true},
		{"faster but within bound", rep(0, []float64{105, 106, 104, 105}, []float64{95, 96, 94, 95}), verdictOK, verdictOK, false},
		{"noisy", rep(0, steady, []float64{70, 130, 100, 102}), verdictOK, verdictUnresolved, false},
		{"noisy but every run better", rep(0, steady, []float64{40, 80, 60, 70}), verdictOK, verdictOK, false},
		{"more failures", rep(1, steady, steady), verdictOK, verdictOK, true},
	} {
		var out bytes.Buffer
		err := compareFiles(sp, base, write("new.json", c.new), &out)
		if (err != nil) != c.wantsError {
			t.Errorf("%s: error %v, wanted one: %v\n%s", c.name, err, c.wantsError, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) < 3 || !strings.HasSuffix(lines[1], c.ops) || !strings.HasSuffix(lines[2], c.lat) {
			t.Errorf("%s: want verdicts %s and %s:\n%s", c.name, c.ops, c.lat, out.String())
		}
		if !strings.Contains(lines[1], "of 100") {
			t.Errorf("%s: the change is not given with its base:\n%s", c.name, lines[1])
		}
	}
}

func TestBenchmarkJSONNamesTheSameContract(t *testing.T) {
	var sp spec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &sp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp.Workloads, workloads) {
		t.Errorf("workloads differ:\n%+v\n%+v", sp.Workloads, workloads)
	}
	if !reflect.DeepEqual(sp.EndToEnd, endToEnd) {
		t.Errorf("end-to-end metrics differ:\n%+v\n%+v", sp.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(sp.PerLayer, perLayer) {
		t.Errorf("per-layer metrics differ:\n%+v\n%+v", sp.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(sp.Paths, []string{"benchmark"}) || !reflect.DeepEqual(sp.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("command %v over paths %v", sp.Command, sp.Paths)
	}
	if sp.RunSeconds < 10 {
		t.Errorf("run_seconds %d: the window's floor is 10 s", sp.RunSeconds)
	}
}
