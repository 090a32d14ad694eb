package drift

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fuzzcorpus"
)

func TestDecodeConfigDefaults(t *testing.T) {
	c, err := DecodeConfig([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, DefaultConfig()) {
		t.Fatalf("empty config %+v != defaults %+v", c, DefaultConfig())
	}
	c, err = DecodeConfig([]byte(`{"sensitivity": 2, "staleFrames": -1}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Sensitivity != 2 || c.StaleFrames != -1 || c.Window != 2 {
		t.Fatalf("overrides not applied: %+v", c)
	}
}

func TestDecodeConfigRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error
	}{
		{"empty input", ``, "decode config"},
		{"not json", `sensitivity: 1`, "decode config"},
		{"wrong type", `{"sensitivity": "high"}`, "decode config"},
		{"unknown field", `{"sensitivty": 1}`, "unknown field"},
		{"trailing data", `{} {}`, "trailing data"},
		{"trailing garbage", `{"window": 4} tail`, "trailing data"},
		{"array not object", `[1, 2]`, "decode config"},
		{"negative sensitivity", `{"sensitivity": -1}`, "sensitivity"},
		{"huge sensitivity", `{"sensitivity": 1000}`, "sensitivity"},
		{"zero-width window", `{"window": -3}`, "window"},
		{"window overflow", `{"window": 100000}`, "window"},
		{"alpha above one", `{"baselineAlpha": 1.5}`, "baselineAlpha"},
		{"alpha negative", `{"baselineAlpha": -0.25}`, "baselineAlpha"},
		{"centroid threshold above one", `{"centroidThreshold": 2}`, "centroidThreshold"},
		{"jaccard threshold negative", `{"jaccardThreshold": -0.5}`, "jaccardThreshold"},
		{"top mass above one", `{"topMass": 1.01}`, "topMass"},
		{"warmup negative", `{"warmupFrames": -2}`, "warmupFrames"},
		{"calm negative", `{"calmFrames": -2}`, "calmFrames"},
		{"stale below disable", `{"staleFrames": -2}`, "staleFrames"},
		{"stale epsilon negative", `{"staleEpsilon": -0.001}`, "staleEpsilon"},
		{"stale epsilon above half", `{"staleEpsilon": 0.6}`, "staleEpsilon"},
		{"min support negative", `{"minSupport": -1}`, "minSupport"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeConfig([]byte(tc.in))
			if err == nil {
				t.Fatalf("accepted malformed config %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func FuzzDecodeDriftConfig(f *testing.F) {
	for _, seed := range driftConfigCorpus {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := DecodeConfig(raw)
		if err != nil {
			return
		}
		// Accepted configs must construct a detector and round-trip: the
		// re-encoded config decodes to the identical value (defaults are
		// already materialized, so the trip is a fixed point).
		if _, err := New(c); err != nil {
			t.Fatalf("accepted config rejected by New: %v\nconfig: %+v", err, c)
		}
		out, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("accepted config does not marshal: %v", err)
		}
		back, err := DecodeConfig(out)
		if err != nil {
			t.Fatalf("round-tripped config rejected: %v\nconfig: %s", err, out)
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatalf("round trip not a fixed point:\n in: %+v\nout: %+v", c, back)
		}
	})
}

// driftConfigCorpus seeds the fuzzer and regenerates the checked-in corpus.
var driftConfigCorpus = []string{
	`{}`,
	`{"sensitivity": 1}`,
	`{"sensitivity": 0.5, "window": 8, "baselineAlpha": 0.1}`,
	`{"centroidThreshold": 0.3, "jaccardThreshold": 0.4, "topMass": 0.8}`,
	`{"warmupFrames": 10, "calmFrames": 5, "staleFrames": -1, "minSupport": 4}`,
	`{"sensitivity": 2, "staleFrames": 12}`,
	`{"staleEpsilon": 0.001, "window": 2}`,
}

// TestGenerateDriftConfigFuzzCorpus refreshes the checked-in seed corpus.
// Run with REGEN_FUZZ_CORPUS=1 when the schema changes.
func TestGenerateDriftConfigFuzzCorpus(t *testing.T) {
	seeds := make([][]byte, len(driftConfigCorpus))
	for i, seed := range driftConfigCorpus {
		seeds[i] = []byte(seed)
	}
	fuzzcorpus.Write(t, "FuzzDecodeDriftConfig", seeds)
}
