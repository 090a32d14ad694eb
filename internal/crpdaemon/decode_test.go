package crpdaemon

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/crp"
	"repro/internal/obs"
)

func TestDecodeRequestBounds(t *testing.T) {
	longID := strings.Repeat("x", MaxIDBytes+1)
	manyReplicas := `["` + strings.Repeat(`r","`, MaxListEntries) + `r"]`
	cases := []struct {
		name    string
		raw     string
		wantErr string
	}{
		{"valid", `{"op":"observe","node":"n1","replicas":["r1","r2"]}`, ""},
		{"valid utf8 id", `{"op":"observe","node":"nœud-1","replicas":["r1"]}`, ""},
		{"empty object", `{}`, `unknown op ""`},
		{"unknown op", `{"op":"warp"}`, `unknown op "warp"`},
		{"unknown op in batch", `{"op":"batch","batch":[{"op":"stats"},{"op":"warp"}]}`, `batch[1]: unknown op "warp"`},
		{"truncated json", `{"op":"obs`, "bad request"},
		{"truncated mid-list", `{"op":"observe","replicas":["r1",`, "bad request"},
		{"empty payload", ``, "bad request"},
		{"not an object", `[1,2,3]`, "bad request"},
		{"oversized payload", `{"op":"` + strings.Repeat("a", MaxRequestSize) + `"}`, "request too large"},
		{"oversized node id", `{"op":"observe","node":"` + longID + `"}`, "node is"},
		{"oversized replica id", `{"op":"observe","replicas":["` + longID + `"]}`, "replicas[0]"},
		{"oversized candidate id", `{"op":"closest","candidates":["` + longID + `"]}`, "candidates[0]"},
		{"too many replicas", `{"op":"observe","replicas":` + manyReplicas + `}`, "replicas list"},
		{"nul in id", `{"op":"observe","node":"a\u0000b"}`, "NUL"},
		{"negative k", `{"op":"closest","client":"c","k":-1}`, "k -1"},
		{"huge k", `{"op":"closest","client":"c","k":100000}`, "k 100000"},
		{"negative n", `{"op":"distinct_clusters","n":-5}`, "n -5"},
		{"huge n", `{"op":"distinct_clusters","n":2097153}`, "n 2097153"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeRequest([]byte(tc.raw))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("DecodeRequest(%q) = %v, want ok", truncate(tc.raw), err)
				}
				return
			}
			if err == nil {
				t.Fatalf("DecodeRequest(%q) accepted, want error containing %q", truncate(tc.raw), tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func truncate(s string) string {
	if len(s) > 120 {
		return s[:120] + "..."
	}
	return s
}

// TestHandleRejectsHostilePayloads drives the same payloads through the
// public Handle path: every one must produce a structured JSON error reply,
// never a panic or an empty reply.
func TestHandleRejectsHostilePayloads(t *testing.T) {
	d, pc := startDaemon(t, Config{Registry: obs.NewRegistry()})
	defer d.Close()
	_ = pc

	payloads := []string{
		`{"op":"observe","node":"` + strings.Repeat("x", MaxIDBytes+1) + `","replicas":["r1"]}`,
		`{"op":"closest","client":"c","k":-7}`,
		`{"op":`,
		strings.Repeat("A", MaxRequestSize+1),
		`{"op":"observe","replicas":["` + strings.Repeat("z", 4096) + `"]}`,
		"\x00\x01\x02\x03",
	}
	for i, p := range payloads {
		wire := d.Handle([]byte(p))
		var resp Response
		if err := json.Unmarshal(wire, &resp); err != nil {
			t.Fatalf("payload %d: reply is not JSON: %v (%q)", i, err, wire)
		}
		if resp.OK || resp.Error == "" {
			t.Fatalf("payload %d accepted: %+v", i, resp)
		}
	}
}

// FuzzDecodeRequest asserts the decoder never panics and that everything it
// accepts also survives dispatch. The corpus seeds cover every op plus the
// boundary shapes the regression table pins down.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		`{"op":"observe","node":"n1","replicas":["r1","r2"]}`,
		`{"op":"similarity","a":"n1","b":"n2"}`,
		`{"op":"ratio_map","node":"n1"}`,
		`{"op":"closest","client":"c1","candidates":["n1","n2"],"k":3}`,
		`{"op":"distinct_clusters","n":5}`,
		`{"op":"same_cluster","node":"n1","threshold":0.1}`,
		`{"op":"stats"}`,
		`{"op":"observe","replicas":[]}`,
		`{"op":"closest","k":-1}`,
		`{"op":`,
		``,
		`[]`,
		`{"op":"observe","node":"\u0000"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	d, _ := startDaemon(f, Config{Registry: obs.NewRegistry()}, crp.WithWindow(8))
	f.Cleanup(func() { d.Close() })

	f.Fuzz(func(t *testing.T, raw []byte) {
		req, bin, err := DecodeRequest(raw)
		if err != nil {
			return
		}
		// Accepted requests must be within bounds...
		if len(req.Node) > MaxIDBytes || len(req.Replicas) > MaxListEntries ||
			len(req.Candidates) > MaxListEntries || req.K < 0 || req.K > MaxK ||
			req.N < 0 || req.N > MaxN || len(req.Batch) > MaxBatch {
			t.Fatalf("decoder accepted out-of-bounds request: %+v", req)
		}
		// ...and must survive the full handler without panicking, yielding
		// a decodable reply in the request's codec.
		wire := d.Handle(raw)
		resp, respBin, err := DecodeResponse(wire)
		if err != nil {
			t.Fatalf("Handle reply undecodable: %v (%q)", err, wire)
		}
		if respBin != bin {
			t.Fatalf("request codec bin=%v but reply codec bin=%v (%+v)", bin, respBin, resp)
		}
	})
}
