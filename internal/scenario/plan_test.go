package scenario

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/fuzzcorpus"
)

// validPlan is a minimal well-formed plan the malformed-plan table mutates.
func validPlan() map[string]any {
	return map[string]any{
		"name":     "unit",
		"seed":     7,
		"duration": "10s",
		"groups": []map[string]any{
			{
				"name": "web", "kind": "clients", "size": 20, "home": 0,
				"arrival": map[string]any{"process": "constant", "rate": 5},
				"ops":     map[string]any{"observe": 1.0},
			},
		},
	}
}

func mutate(t testing.TB, fn func(p map[string]any)) []byte {
	t.Helper()
	p := validPlan()
	fn(p)
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("marshal mutated plan: %v", err)
	}
	return raw
}

func group0(p map[string]any) map[string]any {
	return p["groups"].([]map[string]any)[0]
}

func TestDecodePlanValid(t *testing.T) {
	p, err := DecodePlan(mutate(t, func(map[string]any) {}))
	if err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if p.Transport != TransportMem || p.Daemons != 3 || p.Shards != 64 {
		t.Fatalf("defaults not applied: transport=%q daemons=%d shards=%d", p.Transport, p.Daemons, p.Shards)
	}
	if p.Ticks() != 10 {
		t.Fatalf("Ticks() = %d, want 10", p.Ticks())
	}
}

// TestDecodePlanMalformed is the exhaustive malformed-plan table: every row
// must fail with a PlanError naming the offending field.
func TestDecodePlanMalformed(t *testing.T) {
	cases := []struct {
		name   string
		raw    []byte
		field  string // PlanError.Field must contain this
		detail string // PlanError.Msg must contain this (optional)
	}{
		{
			name:  "missing seed",
			raw:   mutate(t, func(p map[string]any) { delete(p, "seed") }),
			field: "seed", detail: "required",
		},
		{
			name:  "zero seed",
			raw:   mutate(t, func(p map[string]any) { p["seed"] = 0 }),
			field: "seed",
		},
		{
			name:  "missing name",
			raw:   mutate(t, func(p map[string]any) { delete(p, "name") }),
			field: "name",
		},
		{
			name:  "missing duration",
			raw:   mutate(t, func(p map[string]any) { delete(p, "duration") }),
			field: "duration",
		},
		{
			name:  "unknown transport",
			raw:   mutate(t, func(p map[string]any) { p["transport"] = "tcp" }),
			field: "transport", detail: "tcp",
		},
		{
			// The gossip link has one wire format, so any top-level codec
			// token is bad: the key is unknown. Only groups pick a codec.
			name:  "bad gossip codec token",
			raw:   mutate(t, func(p map[string]any) { p["codec"] = "binary" }),
			field: "plan", detail: `unknown field "codec"`,
		},
		{
			// Ticks() would truncate it to one tick: half a second of the
			// declared window would never run.
			name:  "duration not a whole number of ticks",
			raw:   mutate(t, func(p map[string]any) { p["duration"] = "1500ms" }),
			field: "duration", detail: "whole number",
		},
		{
			name:  "duration shorter than a tick",
			raw:   mutate(t, func(p map[string]any) { p["duration"] = "500ms" }),
			field: "duration", detail: "whole number",
		},
		// The fixed run shape is not plan data: a plan that names one of
		// its values is refused, and the error names the field.
		{
			name:  "tick is fixed",
			raw:   mutate(t, func(p map[string]any) { p["tick"] = "1s" }),
			field: "plan", detail: `unknown field "tick"`,
		},
		{
			name:  "window is fixed",
			raw:   mutate(t, func(p map[string]any) { p["window"] = 10 }),
			field: "plan", detail: `unknown field "window"`,
		},
		{
			name:  "fanout is fixed",
			raw:   mutate(t, func(p map[string]any) { p["fanout"] = 2 }),
			field: "plan", detail: `unknown field "fanout"`,
		},
		{
			name:  "ttl is fixed",
			raw:   mutate(t, func(p map[string]any) { p["ttl"] = 3 }),
			field: "plan", detail: `unknown field "ttl"`,
		},
		{
			name: "ldnsPool is derived from the group size",
			raw: mutate(t, func(p map[string]any) {
				group0(p)["arrival"] = map[string]any{"process": "mobile", "rate": 5, "ldnsPool": 4}
			}),
			field: "plan", detail: `unknown field "ldnsPool"`,
		},
		{
			// crp reads a negative width as "use the host-dependent default".
			name:  "negative shards",
			raw:   mutate(t, func(p map[string]any) { p["shards"] = -1 }),
			field: "shards",
		},
		{
			// Rounds up to 4096, past the digest vector's wire limit.
			name:  "shards past the gossip wire limit",
			raw:   mutate(t, func(p map[string]any) { p["shards"] = 2049 }),
			field: "shards", detail: "2048",
		},
		{
			// Unchecked, newStore's make() dies with "out of memory".
			name:  "shards 2^40",
			raw:   mutate(t, func(p map[string]any) { p["shards"] = 1 << 40 }),
			field: "shards",
		},
		{
			name:  "aggregate bits out of range",
			raw:   mutate(t, func(p map[string]any) { p["aggregateBits"] = 48 }),
			field: "aggregateBits",
		},
		{
			name:  "no groups",
			raw:   mutate(t, func(p map[string]any) { p["groups"] = []map[string]any{} }),
			field: "groups",
		},
		{
			name:  "unknown group kind",
			raw:   mutate(t, func(p map[string]any) { group0(p)["kind"] = "spectators" }),
			field: "groups[0].kind", detail: "spectators",
		},
		{
			name:  "group name bad charset",
			raw:   mutate(t, func(p map[string]any) { group0(p)["name"] = "Web_Clients" }),
			field: "groups[0].name",
		},
		{
			name: "duplicate group name",
			raw: mutate(t, func(p map[string]any) {
				groups := p["groups"].([]map[string]any)
				dup := map[string]any{
					"name": "web", "kind": "providers", "size": 5, "home": 0,
				}
				p["groups"] = append(groups, dup)
			}),
			field: "groups[1].name", detail: "duplicate",
		},
		{
			name:  "non-positive size",
			raw:   mutate(t, func(p map[string]any) { group0(p)["size"] = 0 }),
			field: "groups[0].size",
		},
		{
			name:  "home out of range",
			raw:   mutate(t, func(p map[string]any) { group0(p)["home"] = 3 }),
			field: "groups[0].home",
		},
		{
			name:  "bad prefix",
			raw:   mutate(t, func(p map[string]any) { group0(p)["prefix"] = "10.0.0.0/244" }),
			field: "groups[0].prefix",
		},
		{
			name:  "ipv6 prefix",
			raw:   mutate(t, func(p map[string]any) { group0(p)["prefix"] = "2001:db8::/32" }),
			field: "groups[0].prefix", detail: "IPv4",
		},
		{
			name:  "bad group codec token",
			raw:   mutate(t, func(p map[string]any) { group0(p)["codec"] = "cbor" }),
			field: "groups[0].codec", detail: "cbor",
		},
		{
			name:  "bad namespace",
			raw:   mutate(t, func(p map[string]any) { group0(p)["ns"] = "bad!ns" }),
			field: "groups[0].ns",
		},
		{
			name: "provider with arrival",
			raw: mutate(t, func(p map[string]any) {
				group0(p)["kind"] = "providers"
			}),
			field: "groups[0].arrival.process",
		},
		{
			name: "driven group without ops",
			raw: mutate(t, func(p map[string]any) {
				delete(group0(p), "ops")
			}),
			field: "groups[0].ops",
		},
		{
			name: "unknown op",
			raw: mutate(t, func(p map[string]any) {
				group0(p)["ops"] = map[string]any{"traceroute": 1.0}
			}),
			field: "groups[0].ops.traceroute",
		},
		{
			name: "negative op weight",
			raw: mutate(t, func(p map[string]any) {
				group0(p)["ops"] = map[string]any{"observe": -2.0}
			}),
			field: "groups[0].ops.observe", detail: "negative",
		},
		{
			name: "negative rate",
			raw: mutate(t, func(p map[string]any) {
				group0(p)["arrival"] = map[string]any{"process": "constant", "rate": -5}
			}),
			field: "groups[0].arrival.rate",
		},
		{
			name: "unknown arrival process",
			raw: mutate(t, func(p map[string]any) {
				group0(p)["arrival"] = map[string]any{"process": "bursty", "rate": 5}
			}),
			field: "groups[0].arrival.process", detail: "bursty",
		},
		{
			name: "diurnal peak below trough",
			raw: mutate(t, func(p map[string]any) {
				group0(p)["arrival"] = map[string]any{"process": "diurnal", "peak": 2, "trough": 9}
			}),
			field: "groups[0].arrival.peak",
		},
		{
			name: "diurnal negative trough",
			raw: mutate(t, func(p map[string]any) {
				group0(p)["arrival"] = map[string]any{"process": "diurnal", "peak": 2, "trough": -1}
			}),
			field: "groups[0].arrival.trough",
		},
		{
			name: "overlapping flash windows",
			raw: mutate(t, func(p map[string]any) {
				group0(p)["arrival"] = map[string]any{
					"process": "flash", "rate": 5,
					"spikes": []map[string]any{
						{"at": "2s", "width": "4s", "factor": 3},
						{"at": "5s", "width": "2s", "factor": 2},
					},
				}
			}),
			field: "groups[0].arrival.spikes[1].at", detail: "overlaps",
		},
		{
			name: "spike factor not amplifying",
			raw: mutate(t, func(p map[string]any) {
				group0(p)["arrival"] = map[string]any{
					"process": "flash", "rate": 5,
					"spikes": []map[string]any{{"at": "2s", "width": "4s", "factor": 0.5}},
				}
			}),
			field: "groups[0].arrival.spikes[0].factor",
		},
		{
			name: "mobile churn rate out of range",
			raw: mutate(t, func(p map[string]any) {
				group0(p)["arrival"] = map[string]any{"process": "mobile", "rate": 5, "churnRate": 1.5}
			}),
			field: "groups[0].arrival.churnRate",
		},
		{
			name: "unsupported fault kind",
			raw: mutate(t, func(p map[string]any) {
				p["faults"] = map[string]any{
					"seed":   3,
					"faults": []map[string]any{{"kind": "probe-loss", "rate": 0.1}},
				}
			}),
			field: "faults.faults[0].kind",
		},
		{
			name: "converge rounds on udp",
			raw: mutate(t, func(p map[string]any) {
				p["transport"] = "udp"
				p["envelope"] = map[string]any{"maxConvergeRounds": 10}
			}),
			field: "envelope.maxConvergeRounds",
		},
		{
			name: "snapshot match on udp",
			raw: mutate(t, func(p map[string]any) {
				p["transport"] = "udp"
				p["envelope"] = map[string]any{"requireSnapshotMatch": true}
			}),
			field: "envelope.requireSnapshotMatch",
		},
		{
			name: "snapshot match with aggregation",
			raw: mutate(t, func(p map[string]any) {
				p["aggregateBits"] = 24
				p["envelope"] = map[string]any{"requireSnapshotMatch": true}
			}),
			field: "envelope.requireSnapshotMatch", detail: "aggregat",
		},
		{
			name: "drift on udp",
			raw: mutate(t, func(p map[string]any) {
				p["transport"] = "udp"
				p["drift"] = map[string]any{"every": 5}
			}),
			field: "drift", detail: "mem",
		},
		{
			name: "drift sensitivity is fixed",
			raw: mutate(t, func(p map[string]any) {
				p["drift"] = map[string]any{"every": 5, "sensitivity": 1}
			}),
			field: "plan", detail: `unknown field "sensitivity"`,
		},
		{
			name: "drift event budget without detector",
			raw: mutate(t, func(p map[string]any) {
				p["envelope"] = map[string]any{"maxDriftEvents": 0}
			}),
			field: "envelope.maxDriftEvents", detail: "drift block",
		},
		{
			name: "negative drift event budget",
			raw: mutate(t, func(p map[string]any) {
				p["drift"] = map[string]any{}
				p["envelope"] = map[string]any{"maxDriftEvents": -1}
			}),
			field: "envelope.maxDriftEvents",
		},
		{
			name: "error budget out of range",
			raw: mutate(t, func(p map[string]any) {
				p["envelope"] = map[string]any{"maxErrorRate": 1.5}
			}),
			field: "envelope.maxErrorRate",
		},
		{
			name:  "unknown top-level field",
			raw:   []byte(`{"name":"x","seed":1,"duration":"5s","grops":[]}`),
			field: "plan",
		},
		{
			name:  "trailing data",
			raw:   append(mutate(t, func(map[string]any) {}), []byte(`{"second":"plan"}`)...),
			field: "plan", detail: "trailing",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodePlan(tc.raw)
			if err == nil {
				t.Fatalf("malformed plan accepted")
			}
			var pe *PlanError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T, want *PlanError: %v", err, err)
			}
			if !strings.Contains(pe.Field, tc.field) {
				t.Fatalf("error field %q does not name %q (msg: %s)", pe.Field, tc.field, pe.Msg)
			}
			if tc.detail != "" && !strings.Contains(pe.Msg, tc.detail) {
				t.Fatalf("error msg %q lacks %q", pe.Msg, tc.detail)
			}
		})
	}
}

func FuzzDecodeScenario(f *testing.F) {
	f.Add(mutate(f, func(map[string]any) {}))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","seed":1}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := DecodePlan(raw)
		if err != nil {
			return
		}
		// Accepted plans must round-trip: re-marshal and re-decode to an
		// equally valid plan. That pins the schema against fields that
		// validate but don't survive their own serialization.
		out, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted plan does not marshal: %v", err)
		}
		if _, err := DecodePlan(out); err != nil {
			t.Fatalf("round-tripped plan rejected: %v\nplan: %s", err, out)
		}
	})
}

// TestGenerateScenarioFuzzCorpus refreshes the checked-in seed corpus. Run
// with REGEN_FUZZ_CORPUS=1 when the schema changes.
func TestGenerateScenarioFuzzCorpus(t *testing.T) {
	fuzzcorpus.Write(t, "FuzzDecodeScenario", [][]byte{
		mutate(t, func(map[string]any) {}),
		mutate(t, func(p map[string]any) { p["transport"] = "udp" }),
		mutate(t, func(p map[string]any) {
			p["aggregateBits"] = 24
			group0(p)["prefix"] = "10.20.0.0/24"
		}),
		mutate(t, func(p map[string]any) {
			group0(p)["arrival"] = map[string]any{"process": "diurnal", "peak": 9, "trough": 2, "period": "1h"}
		}),
		mutate(t, func(p map[string]any) {
			group0(p)["arrival"] = map[string]any{
				"process": "flash", "rate": 5,
				"spikes": []map[string]any{{"at": "2s", "width": "3s", "factor": 4}},
			}
		}),
		mutate(t, func(p map[string]any) {
			group0(p)["arrival"] = map[string]any{"process": "mobile", "rate": 5, "churnRate": 0.2}
		}),
		mutate(t, func(p map[string]any) {
			p["faults"] = faults.Scenario{Seed: 3, Faults: []faults.Fault{
				{Kind: faults.PacketLoss, Rate: 0.05, Target: "gossip"},
			}}
			p["envelope"] = map[string]any{"requireConverged": true, "maxConvergeRounds": 50}
		}),
		mutate(t, func(p map[string]any) {
			p["drift"] = map[string]any{"every": 3}
			p["envelope"] = map[string]any{"maxDriftEvents": 0}
		}),
		[]byte(`{}`),
		[]byte(`{"name":"x","seed":0,"duration":"1s"}`),
		[]byte(`not json at all`),
		mutate(t, func(p map[string]any) { p["shards"] = 1 << 40 }),
	})
}

// TestReadmeMatchesPlanSchema keeps scenarios/README.md and the plan types
// in step: every field its schema tables list is a JSON field of a plan
// type, and every JSON field of those types (and of Arrival, documented in
// prose) is named in a code span somewhere in the README.
func TestReadmeMatchesPlanSchema(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	tags := func(v any) []string {
		var out []string
		rt := reflect.TypeOf(v)
		for i := 0; i < rt.NumField(); i++ {
			if name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ","); name != "" && name != "-" {
				out = append(out, name)
			}
		}
		return out
	}
	tabled := map[string]bool{}
	for _, v := range []any{Plan{}, Group{}, DriftPlan{}, Envelope{}} {
		for _, tag := range tags(v) {
			tabled[tag] = true
		}
	}

	// Every first-column name of a schema table row.
	code := regexp.MustCompile("`([^`]*)`")
	rows := 0
	for _, line := range strings.Split(readme, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		first, _, _ := strings.Cut(strings.TrimPrefix(line, "|"), "|")
		for _, m := range code.FindAllStringSubmatch(first, -1) {
			rows++
			if !tabled[m[1]] {
				t.Errorf("README schema table documents %q, which is no plan field", m[1])
			}
		}
	}
	if rows == 0 {
		t.Fatal("no schema table rows found in the README")
	}

	// Every JSON field, as a word inside some code span.
	word := regexp.MustCompile(`[A-Za-z0-9]+`)
	named := map[string]bool{}
	for _, m := range code.FindAllStringSubmatch(readme, -1) {
		for _, w := range word.FindAllString(m[1], -1) {
			named[w] = true
		}
	}
	for _, v := range []any{Plan{}, Group{}, DriftPlan{}, Envelope{}, Arrival{}} {
		for _, tag := range tags(v) {
			if !named[tag] {
				t.Errorf("plan field %q (%T) is not documented in the README", tag, v)
			}
		}
	}
}
