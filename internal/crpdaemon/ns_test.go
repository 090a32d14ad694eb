package crpdaemon

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/crp"
	"repro/internal/binwire"
	"repro/internal/obs"
)

// encodeRawRequest mirrors EncodeRequest's framing but skips checkRequest,
// so over-limit and malformed shapes reach the binary decoder.
func encodeRawRequest(t *testing.T, r *Request) []byte {
	t.Helper()
	var e binwire.Enc
	e.U8(binMagic)
	e.U8(binVersion)
	e.U8(kindReq)
	if err := encodeRequestBody(&e, r); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), e.Bytes()...)
}

// TestRequestNSBounds is the boundary table for the ns field, through both
// codecs: exact-limit accept, limit+1 reject, separator reject.
func TestRequestNSBounds(t *testing.T) {
	jsonReq := func(ns string) []byte {
		b, err := json.Marshal(Request{Op: "ratio_map", Node: "n1", NS: ns})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	binReq := func(ns string) []byte {
		return encodeRawRequest(t, &Request{Op: "ratio_map", Node: "n1", NS: ns})
	}
	cases := []struct {
		name string
		ns   string
		ok   bool
	}{
		{"at limit", strings.Repeat("x", MaxNSBytes), true},
		{"over limit", strings.Repeat("x", MaxNSBytes+1), false},
		{"separator", "bad!ns", false},
		{"nul", "bad\x00ns", false},
		{"plain", "cdnA", true},
	}
	for _, c := range cases {
		for codec, enc := range map[string]func(string) []byte{"json": jsonReq, "bin": binReq} {
			req, _, err := DecodeRequest(enc(c.ns))
			if c.ok && err != nil {
				t.Errorf("%s/%s: rejected: %v", codec, c.name, err)
			}
			if !c.ok && err == nil {
				t.Errorf("%s/%s: ns %q accepted", codec, c.name, c.ns)
			}
			if c.ok && req.NS != c.ns {
				t.Errorf("%s/%s: ns did not survive decode: %q", codec, c.name, req.NS)
			}
		}
	}

	// All three presence bits together (threshold + candidates + ns) is the
	// widest legal flags byte; anything above must stay rejected.
	th := 0.5
	full := &Request{Op: "closest", Client: "c1", Candidates: []string{"n1"}, K: 1, Threshold: &th, NS: "cdnA"}
	raw, err := EncodeRequest(full, true)
	if err != nil {
		t.Fatal(err)
	}
	if raw[4] != 7 { // flags byte follows the opcode
		t.Fatalf("flags byte = %d, want 7", raw[4])
	}
	if _, _, err := DecodeRequest(raw); err != nil {
		t.Fatalf("flags=7 request rejected: %v", err)
	}
	raw[4] = 8
	if _, _, err := DecodeRequest(raw); err == nil {
		t.Fatal("reserved flag bit 8 accepted")
	}
}

// TestNSRequestBackCompat pins that the namespaced codec still decodes
// pre-namespace frames: the ns field rides at the end of the body behind
// flag bit 4, so a frame built by the old encoder — same version byte, no
// ns tail — decodes unchanged, and every checked-in fuzz seed (which
// includes the pre-refactor corpus entries) still goes through the decoder
// without a panic.
func TestNSRequestBackCompat(t *testing.T) {
	// A pre-namespace ratio_map frame, byte by byte: the old encoder wrote
	// exactly this — no bit 4, no trailing ns string.
	var e binwire.Enc
	e.U8(binMagic)
	e.U8(binVersion)
	e.U8(kindReq)
	e.U8(1) // ratio_map's opcode
	e.U8(0) // flags: nothing present
	for _, s := range []string{"n1", "", "", "", ""} {
		e.String(s)
	}
	e.Uvarint(0) // replicas
	e.Uvarint(0) // k
	e.Uvarint(0) // n
	req, bin, err := DecodeRequest(e.Bytes())
	if err != nil || !bin {
		t.Fatalf("pre-namespace frame: bin=%v err=%v", bin, err)
	}
	if req.Op != "ratio_map" || req.Node != "n1" || req.NS != "" {
		t.Fatalf("pre-namespace frame decoded to %+v", req)
	}

	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeBinaryRequest")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty fuzz corpus")
	}
	decoded := 0
	for _, ent := range entries {
		body, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(body)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: unexpected corpus format", ent.Name())
		}
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		raw, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: %v", ent.Name(), err)
		}
		// Corruption seeds must keep failing; valid seeds must keep
		// round-tripping. Either way: no panic, no drift.
		req, bin, err := DecodeRequest([]byte(raw))
		if err != nil {
			continue
		}
		decoded++
		if bin {
			re, err := EncodeRequest(&req, true)
			if err != nil {
				t.Fatalf("%s: decoded seed unencodable: %v", ent.Name(), err)
			}
			if string(re) != raw {
				t.Fatalf("%s: seed re-encode drifted", ent.Name())
			}
		}
	}
	if decoded == 0 {
		t.Fatal("no corpus seed decoded — corpus lost its valid entries")
	}
}

// TestNSDispatch drives namespaced queries end to end through Handle in
// both codecs: a scoped ratio_map / similarity / closest answers from one
// CDN's signal only, and ns on an op without scoped semantics is a
// structured error, not a silent ignore.
func TestNSDispatch(t *testing.T) {
	svc := crp.NewService()
	if err := svc.EnableFusion(crp.FusionConfig{}); err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Serve(pc, svc, Config{Registry: obs.NewRegistry()})
	if err != nil {
		pc.Close()
		t.Fatal(err)
	}
	defer d.Close()

	handle := func(req Request, bin bool) Response {
		raw, err := EncodeRequest(&req, bin)
		if err != nil {
			t.Fatal(err)
		}
		resp, respBin, err := DecodeResponse(d.Handle(raw))
		if err != nil {
			t.Fatalf("reply undecodable: %v", err)
		}
		if respBin != bin {
			t.Fatalf("request codec bin=%v but reply codec bin=%v", bin, respBin)
		}
		return resp
	}

	// Two nodes that agree on cdnA and disagree on cdnB.
	seed := []Request{
		{Op: "observe", Node: "n1", Replicas: []string{"cdnA!r1", "cdnB!x1"}},
		{Op: "observe", Node: "n1", Replicas: []string{"cdnA!r2", "cdnB!x1"}},
		{Op: "observe", Node: "n2", Replicas: []string{"cdnA!r1", "cdnB!y1"}},
		{Op: "observe", Node: "n2", Replicas: []string{"cdnA!r2", "cdnB!y1"}},
	}
	for _, r := range seed {
		if resp := handle(r, true); !resp.OK {
			t.Fatalf("observe = %+v", resp)
		}
	}

	for _, bin := range []bool{false, true} {
		rm := handle(Request{Op: "ratio_map", Node: "n1", NS: "cdnB"}, bin)
		if !rm.OK || len(rm.RatioMap) != 1 || rm.RatioMap["cdnB!x1"] == 0 {
			t.Fatalf("bin=%v: cdnB ratio_map = %+v", bin, rm)
		}
		simA := handle(Request{Op: "similarity", A: "n1", B: "n2", NS: "cdnA"}, bin)
		if !simA.OK || simA.Similarity == nil || *simA.Similarity < 0.999 {
			t.Fatalf("bin=%v: cdnA similarity = %+v", bin, simA)
		}
		simB := handle(Request{Op: "similarity", A: "n1", B: "n2", NS: "cdnB"}, bin)
		if !simB.OK || simB.Similarity == nil || *simB.Similarity != 0 {
			t.Fatalf("bin=%v: cdnB similarity = %+v", bin, simB)
		}
		cl := handle(Request{Op: "closest", Client: "n1", Candidates: []string{"n2"}, K: 1, NS: "cdnA"}, bin)
		if !cl.OK || len(cl.Ranked) != 1 || cl.Ranked[0].Node != "n2" || cl.Ranked[0].Similarity < 0.999 {
			t.Fatalf("bin=%v: cdnA closest = %+v", bin, cl)
		}
		// Unscoped queries keep working beside the scoped ones (fused kernel).
		fused := handle(Request{Op: "similarity", A: "n1", B: "n2"}, bin)
		if !fused.OK || fused.Similarity == nil || *fused.Similarity <= 0 || *fused.Similarity >= 1 {
			t.Fatalf("bin=%v: fused similarity = %+v", bin, fused)
		}
		// ns on an op without scoped semantics: structured rejection.
		bad := handle(Request{Op: "stats", NS: "cdnA"}, bin)
		if bad.OK || !strings.Contains(bad.Error, "does not support ns scoping") {
			t.Fatalf("bin=%v: ns'd stats = %+v", bin, bad)
		}
		// Unknown namespace is an empty answer, not a crash.
		missing := handle(Request{Op: "ratio_map", Node: "n1", NS: "cdnZ"}, bin)
		if !missing.OK || len(missing.RatioMap) != 0 {
			t.Fatalf("bin=%v: unknown-ns ratio_map = %+v", bin, missing)
		}
	}
}

// TestStatsReplySummarizesNSFamilies is the reply-size regression for the
// per-namespace gauge families: a fused deployment that has seen thousands
// of namespaces would overflow the UDP reply budget if the stats op
// exported one gauge per namespace, so the exported snapshot must carry the
// six-field summary instead — and still fit in one datagram.
func TestStatsReplySummarizesNSFamilies(t *testing.T) {
	svc := crp.NewService()
	if err := svc.EnableFusion(crp.FusionConfig{}); err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// No Registry override: the daemon must default to obs.Default(), which
	// is where the service's ns gauges live.
	d, err := Serve(pc, svc, Config{})
	if err != nil {
		pc.Close()
		t.Fatal(err)
	}
	defer d.Close()

	// 2000 namespaces ≈ 74 KB of raw gauge lines — over MaxReplySize on
	// their own, so without the summary the reply could only degrade.
	const numNS = 2000
	for i := 0; i < numNS; i++ {
		r := crp.Qualify(crp.Namespace(fmt.Sprintf("cdn%04d", i)), "r1")
		if err := svc.Observe(crp.NodeID("n1"), d.now(), r); err != nil {
			t.Fatal(err)
		}
	}

	raw, err := EncodeRequest(&Request{Op: "stats"}, false)
	if err != nil {
		t.Fatal(err)
	}
	wire := d.Handle(raw)
	if len(wire) > MaxReplySize {
		t.Fatalf("stats reply is %d bytes, exceeds MaxReplySize", len(wire))
	}
	resp, _, err := DecodeResponse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Stats == nil {
		t.Fatalf("stats reply = %+v", resp)
	}
	if got := resp.Stats.Gauges["crp.service.ns_observes.count"]; got < numNS {
		t.Fatalf("ns_observes.count = %d, want >= %d", got, numNS)
	}
	for name := range resp.Stats.Gauges {
		if strings.HasPrefix(name, "crp.service.ns.") {
			t.Fatalf("raw per-namespace gauge %q leaked into the exported snapshot", name)
		}
	}
}
