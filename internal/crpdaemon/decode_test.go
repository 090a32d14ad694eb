package crpdaemon

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/crp"
	"repro/internal/binwire"
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

// TestThresholdMustBeFinite pins that a threshold neither codec can decode
// is refused at encode, in both codecs, with the decoder's message: anything
// EncodeRequest accepts must also decode.
func TestThresholdMustBeFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, bin := range []bool{true, false} {
			for _, r := range []Request{
				{Op: "same_cluster", Node: "n", Threshold: &v},
				{Op: "batch", Batch: []Request{{Op: "stats"}, {Op: "distinct_clusters", N: 2, Threshold: &v}}},
			} {
				want := "threshold: bad value"
				if r.Op == "batch" {
					want = "batch[1]: " + want
				}
				raw, err := EncodeRequest(&r, bin)
				if err == nil || err.Error() != want {
					t.Fatalf("threshold %v, bin=%v, %s: encoded %d bytes, err = %v; want %q",
						v, bin, r.Op, len(raw), err, want)
				}
			}
		}
	}
}

// TestIDListErrorsNameTheEntry pins the error for a bad entry in an ID list
// — oversized, not UTF-8, carrying a NUL — at its first, middle and last
// index, in both codecs, at encode and at decode. Field names are built
// only when a check fails, so the messages must still name the index.
func TestIDListErrorsNameTheEntry(t *testing.T) {
	bad := []struct{ kind, id, msg string }{
		{"oversized", strings.Repeat("x", MaxIDBytes+1), "is 256 bytes, limit 255"},
		{"non-UTF-8", "r\xff\xfe", "is not valid UTF-8"},
		{"NUL", "r\x00s", "contains a NUL byte"},
	}
	for _, field := range []string{"replicas", "candidates"} {
		for _, at := range []int{0, 119, 239} {
			for _, b := range bad {
				ids := closestRequest(240).Candidates
				ids[at] = b.id
				r := Request{Op: "closest", Client: "c", Candidates: ids}
				if field == "replicas" {
					r = Request{Op: "observe", Node: "n", Replicas: ids}
				}
				name := fmt.Sprintf("%s[%d] %s", field, at, b.kind)
				want := fmt.Sprintf("%s[%d] %s", field, at, b.msg)
				for _, bin := range []bool{true, false} {
					if _, err := EncodeRequest(&r, bin); err == nil || err.Error() != want {
						t.Fatalf("%s: encode bin=%v: err = %v, want %q", name, bin, err, want)
					}
				}

				// Decode, past the encoder's check. The binary decoder
				// refuses an oversized entry while reading it; JSON
				// cannot carry invalid UTF-8 (it decodes to U+FFFD).
				var e binwire.Enc
				e.U8(binMagic)
				e.U8(binVersion)
				e.U8(kindReq)
				if err := encodeRequestBody(&e, &r); err != nil {
					t.Fatal(err)
				}
				wantBin := want
				if b.kind == "oversized" {
					wantBin = "binwire: string of 256 bytes exceeds the 255-byte limit"
				}
				if _, _, err := DecodeRequest(e.Bytes()); err == nil || err.Error() != wantBin {
					t.Fatalf("%s: binary decode: err = %v, want %q", name, err, wantBin)
				}
				if b.kind == "non-UTF-8" {
					continue
				}
				raw, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := DecodeRequest(raw); err == nil || err.Error() != want {
					t.Fatalf("%s: JSON decode: err = %v, want %q", name, err, want)
				}
			}
		}
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
