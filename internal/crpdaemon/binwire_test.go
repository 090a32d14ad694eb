package crpdaemon

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/crp"
	"repro/internal/binwire"
	"repro/internal/fuzzcorpus"
	"repro/internal/obs"
	"repro/internal/peering"
)

// TestWireBoundsArePinned pins the UDP payload arithmetic so a future edit
// cannot silently reopen the 65508..65536 dead band: 65535 total − 8 UDP
// header − 20 IPv4 header, identical on the request side, the reply side
// and the gossip plane.
func TestWireBoundsArePinned(t *testing.T) {
	const udpPayloadCeiling = 65535 - 8 - 20
	if MaxRequestSize != udpPayloadCeiling {
		t.Fatalf("MaxRequestSize = %d, want %d", MaxRequestSize, udpPayloadCeiling)
	}
	if MaxReplySize != udpPayloadCeiling {
		t.Fatalf("MaxReplySize = %d, want %d", MaxReplySize, udpPayloadCeiling)
	}
	if peering.MaxMsgSize != udpPayloadCeiling {
		t.Fatalf("peering.MaxMsgSize = %d, want %d", peering.MaxMsgSize, udpPayloadCeiling)
	}
}

func sampleRequests() []Request {
	th := 0.25
	zero := 0.0
	return []Request{
		{Op: "observe", Node: "n1", Replicas: []string{"r1", "r2"}},
		{Op: "similarity", A: "n1", B: "n2"},
		{Op: "ratio_map", Node: "nœud-1"},
		{Op: "closest", Client: "c1", Candidates: []string{"n1", "n2"}, K: 3},
		{Op: "closest", Client: "c1", K: 2},                   // nil candidates: all nodes
		{Op: "closest", Client: "c1", Candidates: []string{}}, // empty: no candidates
		{Op: "same_cluster", Node: "n1", Threshold: &th},
		{Op: "same_cluster", Node: "n1", Threshold: &zero}, // explicit 0 ≠ absent
		{Op: "distinct_clusters", N: 5},
		{Op: "stats"},
		{Op: "nodes"},
		{Op: "peer-join", Addr: "127.0.0.1:7946"},
		{Op: "peer-status"},
		{Op: "batch", Batch: []Request{
			{Op: "observe", Node: "n1", Replicas: []string{"r1"}},
			{Op: "similarity", A: "n1", B: "n2"},
			{Op: "stats"},
		}},
		// Namespaced shapes ride after the pre-namespace ones so extending
		// the corpus preserved the original seed numbering.
		{Op: "ratio_map", Node: "n1", NS: "cdnA"},
		{Op: "similarity", A: "n1", B: "n2", NS: strings.Repeat("n", MaxNSBytes)},
		{Op: "closest", Client: "c1", Candidates: []string{"n1"}, K: 2, NS: "cdnB"},
		{Op: "observe", Node: "n1", Replicas: []string{"cdnA!r1", "cdnB!r1"}},
		{Op: "batch", Batch: []Request{
			{Op: "observe", Node: "n1", Replicas: []string{"cdnA!r1"}},
			{Op: "closest", Client: "n1", K: 1, NS: "cdnA"},
		}},
	}
}

func reqJSON(t *testing.T, r Request) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBinaryRequestRoundTrip pins decode(encode(x)) == x for every op,
// including the presence-sensitive shapes: nil vs empty candidates and the
// explicit zero threshold.
func TestBinaryRequestRoundTrip(t *testing.T) {
	for _, r := range sampleRequests() {
		raw, err := EncodeRequest(&r, true)
		if err != nil {
			t.Fatalf("%s: encode: %v", r.Op, err)
		}
		if raw[0] != binMagic {
			t.Fatalf("%s: first byte 0x%02x, want the binary magic", r.Op, raw[0])
		}
		got, bin, err := DecodeRequest(raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", r.Op, err)
		}
		if !bin {
			t.Fatalf("%s: decode reported JSON for a binary request", r.Op)
		}
		if reqJSON(t, got) != reqJSON(t, r) {
			t.Fatalf("%s: round trip mismatch:\n got %s\nwant %s", r.Op, reqJSON(t, got), reqJSON(t, r))
		}
		// The presence distinction must survive verbatim, not just via JSON.
		if (got.Candidates == nil) != (r.Candidates == nil) {
			t.Fatalf("%s: candidates nil-ness flipped on the wire", r.Op)
		}
		if (got.Threshold == nil) != (r.Threshold == nil) {
			t.Fatalf("%s: threshold presence flipped on the wire", r.Op)
		}
	}
}

// TestCrossCodecRequest is the JSON↔binary property test: for generated
// requests, both encodings decode to the same request, and the binary
// encoding is smaller and decodes with fewer allocations.
func TestCrossCodecRequest(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ops := []string{"observe", "ratio_map", "similarity", "closest", "nodes",
		"stats", "same_cluster", "distinct_clusters", "peer-join", "peer-status"}
	injected := false // a generated request carries a value both codecs must refuse
	genSingle := func() Request {
		r := Request{Op: ops[rng.Intn(len(ops))]}
		if rng.Intn(2) == 0 {
			r.Node = fmt.Sprintf("node-%d", rng.Intn(1000))
		}
		if rng.Intn(3) == 0 {
			r.A, r.B = "a1", "b1"
		}
		if rng.Intn(3) == 0 {
			r.Client = "client-1"
		}
		for i := 0; i < rng.Intn(4); i++ {
			r.Replicas = append(r.Replicas, fmt.Sprintf("r%d", rng.Intn(100)))
		}
		switch rng.Intn(3) {
		case 0: // nil
		case 1:
			r.Candidates = []string{}
		case 2:
			r.Candidates = []string{fmt.Sprintf("c%d", rng.Intn(100))}
		}
		r.K = rng.Intn(MaxK + 1)
		r.N = rng.Intn(100)
		if rng.Intn(2) == 0 {
			th := float64(rng.Intn(100)) / 100
			r.Threshold = &th
		}
		// Now and then a value one codec might carry and the other refuse.
		switch rng.Intn(20) {
		case 0:
			th := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			r.Threshold = &th
			injected = true
		case 1:
			r.Replicas = append(r.Replicas, "bad\x00id")
			injected = true
		case 2:
			r.Candidates = append(r.Candidates, strings.Repeat("c", MaxIDBytes+1))
			injected = true
		}
		return r
	}
	refused := 0
	for i := 0; i < 300; i++ {
		injected = false
		r := genSingle()
		if i%5 == 0 {
			injected = false // r is dropped for the batch
			batch := Request{Op: "batch"}
			for j := 0; j < 1+rng.Intn(4); j++ {
				batch.Batch = append(batch.Batch, genSingle())
			}
			r = batch
		}
		// A request with an injected bad value is refused by both codecs
		// with one message; every other request encodes in both, and must
		// then decode in each (below).
		jsonRaw, jsonErr := EncodeRequest(&r, false)
		binRaw, binErr := EncodeRequest(&r, true)
		if injected {
			if jsonErr == nil || binErr == nil || jsonErr.Error() != binErr.Error() {
				t.Fatalf("case %d: bad value: json encode error %v, binary %v; want one refusal", i, jsonErr, binErr)
			}
			refused++
			continue
		}
		if jsonErr != nil || binErr != nil {
			t.Fatalf("case %d: json encode error %v, binary %v", i, jsonErr, binErr)
		}
		if len(binRaw) >= len(jsonRaw) {
			t.Fatalf("case %d (%s): binary %d bytes, JSON %d — binary must be smaller",
				i, r.Op, len(binRaw), len(jsonRaw))
		}
		fromJSON, bin, err := DecodeRequest(jsonRaw)
		if err != nil || bin {
			t.Fatalf("case %d: json decode: bin=%v err=%v", i, bin, err)
		}
		fromBin, bin, err := DecodeRequest(binRaw)
		if err != nil || !bin {
			t.Fatalf("case %d: binary decode: bin=%v err=%v", i, bin, err)
		}
		if reqJSON(t, fromJSON) != reqJSON(t, fromBin) {
			t.Fatalf("case %d: codecs disagree:\n json %s\n bin  %s",
				i, reqJSON(t, fromJSON), reqJSON(t, fromBin))
		}
		binAllocs := testing.AllocsPerRun(10, func() { _, _, _ = DecodeRequest(binRaw) })
		jsonAllocs := testing.AllocsPerRun(10, func() { _, _, _ = DecodeRequest(jsonRaw) })
		if binAllocs >= jsonAllocs {
			t.Fatalf("case %d (%s): binary decode %v allocs, JSON %v — binary must allocate less",
				i, r.Op, binAllocs, jsonAllocs)
		}
	}
	if refused == 0 || refused > 100 {
		t.Fatalf("%d of 300 cases carried a bad value; the generator should inject a few", refused)
	}
}

// closestRequest is agg_closest's request shape: one client ranked against
// n explicit candidates, k=3.
func closestRequest(n int) Request {
	cands := make([]string, n)
	for i := range cands {
		cands[i] = fmt.Sprintf("10.%d.%d.0", i/200, i%200)
	}
	return Request{Op: "closest", Client: "10.1.2.3", Candidates: cands, K: 3}
}

// observeBatch is ingest_heavy's request shape: n observes of two replicas.
func observeBatch(n int) Request {
	batch := Request{Op: "batch", Batch: make([]Request, n)}
	for i := range batch.Batch {
		batch.Batch[i] = Request{Op: "observe", Node: fmt.Sprintf("node-%d", i),
			Replicas: []string{fmt.Sprintf("r%d.cdn.example", i), fmt.Sprintf("r%d.cdn.example", i+1)}}
	}
	return batch
}

// TestCodecAllocBudget pins the codec's allocations, which must not grow
// with a request's size: no per-entry field name on a passing check, one
// string per decoded ID list and one for a body's scalar IDs, and each
// binary encoder sized once.
func TestCodecAllocBudget(t *testing.T) {
	allocs := func(f func()) float64 { return testing.AllocsPerRun(20, f) }
	mustEncode := func(r *Request, bin bool) []byte {
		t.Helper()
		raw, err := EncodeRequest(r, bin)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	decode := func(raw []byte) func() {
		return func() {
			if _, _, err := DecodeRequest(raw); err != nil {
				t.Fatal(err)
			}
		}
	}
	closest24, closest240, batch := closestRequest(24), closestRequest(240), observeBatch(32)
	for name, r := range map[string]*Request{
		"closest-240": &closest240,
		"similarity":  {Op: "similarity", A: "n1", B: "n2"},
		"batch 32x2":  &batch,
	} {
		if n := allocs(func() { mustEncode(r, true) }); n != 1 {
			t.Errorf("EncodeRequest(%s): %v allocs, want 1", name, n)
		}
	}

	// Its two IDs are cut from one string: the request's one allocation.
	if n := allocs(decode(mustEncode(&Request{Op: "similarity", A: "n1", B: "n2"}, true))); n != 1 {
		t.Errorf("binary DecodeRequest(similarity): %v allocs, want 1", n)
	}
	bin24, bin240 := mustEncode(&closest24, true), mustEncode(&closest240, true)
	d24, d240 := allocs(decode(bin24)), allocs(decode(bin240))
	if d240 > 4 || d24 != d240 {
		t.Errorf("binary DecodeRequest(closest): %v allocs at 24 candidates, %v at 240; want equal and <= 4", d24, d240)
	}
	if n := allocs(decode(mustEncode(&batch, true))); n > 1+3*32 {
		t.Errorf("binary DecodeRequest(batch 32x2): %v allocs, want <= %d", n, 1+3*32)
	}

	// JSON decoding costs what json.Unmarshal costs, plus nothing per entry.
	json240 := mustEncode(&closest240, false)
	unmarshal := allocs(func() {
		var r Request
		if err := json.Unmarshal(json240, &r); err != nil {
			t.Fatal(err)
		}
	})
	j240 := allocs(decode(json240))
	if j240 > unmarshal+2 {
		t.Errorf("JSON DecodeRequest(closest-240): %v allocs, json.Unmarshal alone %v", j240, unmarshal)
	}
	if d240 >= j240 {
		t.Errorf("closest-240: binary decode %v allocs, JSON %v — binary must allocate less", d240, j240)
	}

	// Every reply shape is sized once by responseBodyLen, so a layout that
	// drifts from encodeResponseBody regrows the buffer and shows here. A
	// ratio map also pays for its sorted key slice.
	sim := 0.5
	ratios := map[string]float64{}
	nodes := make([]string, 200)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("10.%d.%d.0", i/100, i%100)
		ratios[nodes[i]+".cdn.example"] = 1 / float64(i+1)
	}
	ranked := []RankedNode{{"10.0.1.0", 0.9}, {"10.0.2.0", 0.5}, {"10.0.3.0", 0.1}}
	for _, c := range []struct {
		name string
		resp *Response
		want float64
	}{
		{"similarity", &Response{OK: true, Similarity: &sim}, 1},
		{"ranked k=3", &Response{OK: true, Ranked: ranked}, 1},
		{"nodes 200", &Response{OK: true, Nodes: nodes}, 1},
		{"ratio_map 200", &Response{OK: true, RatioMap: ratios}, 2},
		{"error", &Response{Error: strings.Repeat("e", 300)}, 1},
		{"batch", &Response{OK: true, Batch: []Response{{OK: true, Similarity: &sim},
			{OK: true, Ranked: ranked}, {OK: true, Nodes: nodes}, {Error: "unknown op"}}}, 1},
	} {
		if n := allocs(func() { EncodeResponseWire(c.resp, true) }); n != c.want {
			t.Errorf("EncodeResponseWire(%s): %v allocs, want %v", c.name, n, c.want)
		}
	}
}

// TestBinaryResponseRoundTrip pins decode(encode(x)) == x for every reply
// shape, including the embedded introspection documents and batch replies,
// and that each decodes with fewer allocations than its JSON encoding.
func TestBinaryResponseRoundTrip(t *testing.T) {
	sim := 0.75
	cases := []Response{
		{OK: true},
		{Error: "no such node"},
		{OK: true, TimedOut: true, Nodes: []string{}},
		{OK: true, Similarity: &sim},
		{OK: true, RatioMap: map[string]float64{"r1": 0.5, "r2": 0.25, "r0": 1}},
		{OK: true, Nodes: []string{"n1", "n2"}},
		{OK: true, Ranked: []RankedNode{{Node: "n1", Similarity: 0.9}, {Node: "n2", Similarity: 0.1}}},
		{OK: true, Stats: &obs.Snapshot{Counters: map[string]uint64{"crpd.requests": 7}}},
		{OK: true, Peering: &peering.StatusReport{Self: "d1", ShardCount: 16, Peers: []peering.PeerInfo{}}},
		{OK: true, Batch: []Response{
			{OK: true},
			{Error: "bad sub-request"},
			{OK: true, Similarity: &sim},
		}},
	}
	for i, resp := range cases {
		raw := EncodeResponseWire(&resp, true)
		got, bin, err := DecodeResponse(raw)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !bin {
			t.Fatalf("case %d: decode reported JSON for a binary reply", i)
		}
		want, _ := json.Marshal(resp)
		have, _ := json.Marshal(got)
		if string(want) != string(have) {
			t.Fatalf("case %d: round trip mismatch:\n got %s\nwant %s", i, have, want)
		}
		// Canonical: re-encode is byte-identical (sorted ratio-map keys).
		if again := EncodeResponseWire(&got, true); string(again) != string(raw) {
			t.Fatalf("case %d: re-encode not byte-identical", i)
		}
		jsonRaw := EncodeResponseWire(&resp, false)
		binAllocs := testing.AllocsPerRun(10, func() { _, _, _ = DecodeResponse(raw) })
		jsonAllocs := testing.AllocsPerRun(10, func() { _, _, _ = DecodeResponse(jsonRaw) })
		if binAllocs >= jsonAllocs {
			t.Fatalf("case %d: binary decode %v allocs, JSON %v — binary must allocate less",
				i, binAllocs, jsonAllocs)
		}
	}
}

// TestBinaryRequestBounds is the boundary table for the binary request
// decoder: exact-limit accept, limit+1 reject, mirroring the JSON table in
// decode_test.go.
func TestBinaryRequestBounds(t *testing.T) {
	ids := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = "r"
		}
		return out
	}
	encode := func(r *Request) []byte {
		// Bypass EncodeRequest's checkRequest so over-limit shapes reach the
		// wire; mirror the encoder's framing by temporarily widening nothing —
		// encodeRequestBody itself has no bounds.
		var e binwire.Enc
		e.U8(binMagic)
		e.U8(binVersion)
		e.U8(kindReq)
		if err := encodeRequestBody(&e, r); err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), e.Bytes()...)
	}

	t.Run("replicas at limit", func(t *testing.T) {
		if _, _, err := DecodeRequest(encode(&Request{Op: "observe", Node: "n", Replicas: ids(MaxListEntries)})); err != nil {
			t.Fatalf("MaxListEntries replicas rejected: %v", err)
		}
	})
	t.Run("replicas over limit", func(t *testing.T) {
		if _, _, err := DecodeRequest(encode(&Request{Op: "observe", Node: "n", Replicas: ids(MaxListEntries + 1)})); err == nil {
			t.Fatal("replicas over limit accepted")
		}
	})
	t.Run("candidates at limit", func(t *testing.T) {
		if _, _, err := DecodeRequest(encode(&Request{Op: "closest", Client: "c", Candidates: ids(MaxListEntries)})); err != nil {
			t.Fatalf("MaxListEntries candidates rejected: %v", err)
		}
	})
	t.Run("candidates over limit", func(t *testing.T) {
		if _, _, err := DecodeRequest(encode(&Request{Op: "closest", Client: "c", Candidates: ids(MaxListEntries + 1)})); err == nil {
			t.Fatal("candidates over limit accepted")
		}
	})
	t.Run("id at limit", func(t *testing.T) {
		if _, _, err := DecodeRequest(encode(&Request{Op: "observe", Node: strings.Repeat("x", MaxIDBytes)})); err != nil {
			t.Fatalf("MaxIDBytes node rejected: %v", err)
		}
	})
	t.Run("id over limit", func(t *testing.T) {
		if _, _, err := DecodeRequest(encode(&Request{Op: "observe", Node: strings.Repeat("x", MaxIDBytes+1)})); err == nil {
			t.Fatal("oversized node id accepted")
		}
	})
	t.Run("k at limit", func(t *testing.T) {
		if _, _, err := DecodeRequest(encode(&Request{Op: "closest", Client: "c", K: MaxK})); err != nil {
			t.Fatalf("MaxK rejected: %v", err)
		}
	})
	t.Run("k over limit", func(t *testing.T) {
		if _, _, err := DecodeRequest(encode(&Request{Op: "closest", Client: "c", K: MaxK + 1})); err == nil {
			t.Fatal("k over limit accepted")
		}
	})
	t.Run("n over limit", func(t *testing.T) {
		if _, _, err := DecodeRequest(encode(&Request{Op: "distinct_clusters", N: MaxN + 1})); err == nil {
			t.Fatal("n over limit accepted")
		}
	})
	t.Run("threshold not finite", func(t *testing.T) {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			_, _, err := DecodeRequest(encode(&Request{Op: "same_cluster", A: "a", B: "b", Threshold: &v}))
			if err == nil || err.Error() != "threshold: bad value" {
				t.Fatalf("threshold %v: err = %v, want threshold: bad value", v, err)
			}
		}
	})
	t.Run("batch at limit", func(t *testing.T) {
		r := Request{Op: "batch", Batch: make([]Request, MaxBatch)}
		for i := range r.Batch {
			r.Batch[i] = Request{Op: "stats"}
		}
		raw, err := EncodeRequest(&r, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeRequest(raw); err != nil {
			t.Fatalf("MaxBatch batch rejected: %v", err)
		}
	})
	t.Run("batch over limit", func(t *testing.T) {
		var e binwire.Enc
		e.U8(binMagic)
		e.U8(binVersion)
		e.U8(kindBatchReq)
		e.Uvarint(MaxBatch + 1)
		for i := 0; i < MaxBatch+1; i++ {
			if err := encodeRequestBody(&e, &Request{Op: "stats"}); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := DecodeRequest(e.Bytes()); err == nil {
			t.Fatal("batch over limit accepted")
		}
	})
	t.Run("empty batch", func(t *testing.T) {
		var e binwire.Enc
		e.U8(binMagic)
		e.U8(binVersion)
		e.U8(kindBatchReq)
		e.Uvarint(0)
		if _, _, err := DecodeRequest(e.Bytes()); err == nil {
			t.Fatal("empty batch accepted")
		}
	})
	t.Run("nested batch rejected in JSON", func(t *testing.T) {
		// The binary framing cannot even express nesting (the kind byte is
		// per-datagram), so the nesting check is reachable only via JSON.
		raw := []byte(`{"op":"batch","batch":[{"op":"batch","batch":[{"op":"stats"}]}]}`)
		_, _, err := DecodeRequest(raw)
		if err == nil || !strings.Contains(err.Error(), "nest") {
			t.Fatalf("nested batch: err = %v, want nesting rejection", err)
		}
	})
	t.Run("unknown opcode", func(t *testing.T) {
		var e binwire.Enc
		e.U8(binMagic)
		e.U8(binVersion)
		e.U8(kindReq)
		e.U8(200) // no such opcode
		if _, _, err := DecodeRequest(e.Bytes()); err == nil {
			t.Fatal("unknown opcode accepted")
		}
	})
	t.Run("reserved flags", func(t *testing.T) {
		raw := encode(&Request{Op: "stats"})
		raw[4] |= 0x80 // flags byte follows the opcode
		if _, _, err := DecodeRequest(raw); err == nil {
			t.Fatal("reserved flag bits accepted")
		}
	})
	t.Run("unknown version", func(t *testing.T) {
		raw := encode(&Request{Op: "stats"})
		raw[1] = binVersion + 1
		if _, _, err := DecodeRequest(raw); err == nil {
			t.Fatal("unknown binary version accepted")
		}
	})
	t.Run("response kind in a request", func(t *testing.T) {
		var e binwire.Enc
		e.U8(binMagic)
		e.U8(binVersion)
		e.U8(kindResp)
		if _, _, err := DecodeRequest(e.Bytes()); err == nil {
			t.Fatal("response frame accepted as a request")
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		raw := append(encode(&Request{Op: "stats"}), 0)
		if _, _, err := DecodeRequest(raw); err == nil {
			t.Fatal("trailing bytes accepted")
		}
	})
	t.Run("oversized payload", func(t *testing.T) {
		raw := make([]byte, MaxRequestSize+1)
		raw[0] = binMagic
		_, bin, err := DecodeRequest(raw)
		if err == nil || !strings.Contains(err.Error(), "request too large") {
			t.Fatalf("err = %v, want size rejection", err)
		}
		if !bin {
			t.Fatal("oversized binary request not sniffed as binary (reply would go back as JSON)")
		}
	})
	t.Run("every truncation fails cleanly", func(t *testing.T) {
		for _, r := range sampleRequests() {
			raw, err := EncodeRequest(&r, true)
			if err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut < len(raw); cut++ {
				if _, _, err := DecodeRequest(raw[:cut]); err == nil {
					t.Fatalf("%s truncated to %d/%d bytes accepted", r.Op, cut, len(raw))
				}
			}
		}
	})
}

// TestBatchDispatch drives a batch datagram end to end through Handle in
// both codecs: sub-responses come back in request order, and both codecs
// agree on the results.
func TestBatchDispatch(t *testing.T) {
	d, _ := startDaemon(t, Config{Registry: obs.NewRegistry()}, crp.WithWindow(8))
	defer d.Close()

	req := Request{Op: "batch", Batch: []Request{
		{Op: "observe", Node: "n1", Replicas: []string{"r1", "r2"}},
		{Op: "observe", Node: "n2", Replicas: []string{"r1", "r3"}},
		{Op: "similarity", A: "n1", B: "n2"},
		{Op: "similarity", A: "n1", B: "missing"}, // fails; batch must carry the error through
		{Op: "nodes"},
	}}
	var replies []Response
	for _, bin := range []bool{false, true} {
		raw, err := EncodeRequest(&req, bin)
		if err != nil {
			t.Fatal(err)
		}
		wire := d.Handle(raw)
		resp, respBin, err := DecodeResponse(wire)
		if err != nil {
			t.Fatalf("bin=%v: reply undecodable: %v", bin, err)
		}
		if respBin != bin {
			t.Fatalf("bin=%v: reply codec mismatch", bin)
		}
		if !resp.OK || len(resp.Batch) != len(req.Batch) {
			t.Fatalf("bin=%v: batch reply = %+v", bin, resp)
		}
		if !resp.Batch[0].OK || !resp.Batch[1].OK {
			t.Fatalf("bin=%v: observe sub-replies failed: %+v", bin, resp.Batch[:2])
		}
		if !resp.Batch[2].OK || resp.Batch[2].Similarity == nil {
			t.Fatalf("bin=%v: similarity sub-reply = %+v", bin, resp.Batch[2])
		}
		if resp.Batch[3].OK || resp.Batch[3].Error == "" {
			t.Fatalf("bin=%v: missing-node sub-reply should fail: %+v", bin, resp.Batch[3])
		}
		if !resp.Batch[4].OK || len(resp.Batch[4].Nodes) != 2 {
			t.Fatalf("bin=%v: nodes sub-reply = %+v", bin, resp.Batch[4])
		}
		replies = append(replies, resp)

		// An observe with no replicas is acknowledged and ignored: no ghost
		// node, no published mutation, no accepted-probe count.
		digests, seq := d.svc.ShardDigests(), d.svc.DriftFrame(time.Time{}).Observes
		raw, err = EncodeRequest(&Request{Op: "observe", Node: "ghost"}, bin)
		if err != nil {
			t.Fatal(err)
		}
		if resp, _, err := DecodeResponse(d.Handle(raw)); err != nil || !resp.OK {
			t.Fatalf("bin=%v: empty observe = %+v, %v", bin, resp, err)
		}
		if nodes := d.svc.Nodes(); len(nodes) != 2 {
			t.Fatalf("bin=%v: nodes after an empty observe = %v", bin, nodes)
		}
		if !slices.Equal(d.svc.ShardDigests(), digests) {
			t.Fatalf("bin=%v: an empty observe changed the shard digests", bin)
		}
		if got := d.svc.DriftFrame(time.Time{}).Observes; got != seq {
			t.Fatalf("bin=%v: an empty observe moved the accepted-probe count %d -> %d", bin, seq, got)
		}
	}
	a, _ := json.Marshal(replies[0])
	b, _ := json.Marshal(replies[1])
	if string(a) != string(b) {
		t.Fatalf("codecs disagree on the batch result:\n json %s\n bin  %s", a, b)
	}
}

// TestBatchHeavyClassification pins the pool routing: a batch is heavy iff
// any sub-request is heavy.
func TestBatchHeavyClassification(t *testing.T) {
	light := Request{Op: "batch", Batch: []Request{{Op: "observe"}, {Op: "stats"}}}
	if batchHeavy(&light) {
		t.Fatal("all-cheap batch classified heavy")
	}
	mixed := Request{Op: "batch", Batch: []Request{{Op: "observe"}, {Op: "distinct_clusters", N: 4}}}
	if !batchHeavy(&mixed) {
		t.Fatal("batch with a heavy sub-request classified cheap")
	}
}

// TestBatchReplyDegrades pins the oversize policy for batch replies: the
// largest sub-responses are stubbed (deterministically) until the envelope
// fits, and the small sub-results survive.
func TestBatchReplyDegrades(t *testing.T) {
	reg := obs.NewRegistry()
	d, _ := startDaemon(t, Config{Registry: reg})
	defer d.Close()

	big := make([]string, 120)
	for i := range big {
		big[i] = strings.Repeat("n", 200) + fmt.Sprintf("%03d", i)
	}
	resp := Response{OK: true, Batch: []Response{
		{OK: true, Nodes: []string{"small-1"}},
		{OK: true, Nodes: big}, // ~24 KB each: 4 of these overflow 65507
		{OK: true, Nodes: big},
		{OK: true, Nodes: big},
		{OK: true, Nodes: big},
		{OK: true, Nodes: []string{"small-2"}},
	}}
	// Both codecs start from the same caller-owned batch: each pass must take
	// the oversize path, so the degradation may not edit resp in place.
	for _, bin := range []bool{false, true} {
		before := reg.Snapshot().Counters["crpd.oversized_replies"]
		wire := d.encodeBounded(nil, resp, bin)
		if got := reg.Snapshot().Counters["crpd.oversized_replies"] - before; got != 1 {
			t.Fatalf("bin=%v: crpd.oversized_replies moved by %d, want 1", bin, got)
		}
		if len(wire) > MaxReplySize {
			t.Fatalf("bin=%v: degraded reply is still %d bytes", bin, len(wire))
		}
		got, _, err := DecodeResponse(wire)
		if err != nil {
			t.Fatalf("bin=%v: degraded reply undecodable: %v", bin, err)
		}
		if len(got.Batch) != 6 {
			t.Fatalf("bin=%v: degraded reply lost sub-slots: %+v", bin, got)
		}
		if len(got.Batch[0].Nodes) != 1 || len(got.Batch[5].Nodes) != 1 {
			t.Fatalf("bin=%v: small sub-results did not survive degradation", bin)
		}
		stubbed := 0
		for _, sub := range got.Batch {
			if strings.Contains(sub.Error, "response too large") {
				stubbed++
			}
		}
		if stubbed == 0 || stubbed == len(got.Batch) {
			t.Fatalf("bin=%v: %d/%d subs stubbed; want partial degradation", bin, stubbed, len(got.Batch))
		}
	}
}

// oneShotConn is a fake PacketConn that delivers one oversized datagram and
// then blocks: the only way to exercise what the read loop sees when the
// kernel hands it more than MaxRequestSize bytes (real loopback UDP cannot
// carry such a datagram).
type oneShotConn struct {
	payload   []byte
	delivered bool
	mu        sync.Mutex
	replies   chan []byte
	closed    chan struct{}
	once      sync.Once
}

func (c *oneShotConn) ReadFrom(b []byte) (int, net.Addr, error) {
	c.mu.Lock()
	first := !c.delivered
	c.delivered = true
	c.mu.Unlock()
	if first {
		n := copy(b, c.payload)
		return n, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}, nil
	}
	<-c.closed
	return 0, nil, net.ErrClosed
}

func (c *oneShotConn) WriteTo(b []byte, _ net.Addr) (int, error) {
	select {
	case c.replies <- append([]byte(nil), b...):
	default:
	}
	return len(b), nil
}

func (c *oneShotConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *oneShotConn) LocalAddr() net.Addr              { return &net.UDPAddr{IP: net.IPv4zero, Port: 0} }
func (c *oneShotConn) SetDeadline(time.Time) error      { return nil }
func (c *oneShotConn) SetReadDeadline(time.Time) error  { return nil }
func (c *oneShotConn) SetWriteDeadline(time.Time) error { return nil }

// TestOversizedDatagramCounted is the crpd half of the truncation
// regression: a datagram larger than MaxRequestSize fills the read loop's
// bound+1 buffer, is counted as oversize, never reaches the decoder, and
// still earns the client a structured codec-matched error.
func TestOversizedDatagramCounted(t *testing.T) {
	payload := make([]byte, MaxRequestSize+4096)
	payload[0] = binMagic // oversized *binary* request: the error must come back binary
	conn := &oneShotConn{payload: payload, replies: make(chan []byte, 1), closed: make(chan struct{})}
	reg := obs.NewRegistry()
	d, err := Serve(conn, crp.NewService(), Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	select {
	case wire := <-conn.replies:
		resp, bin, err := DecodeResponse(wire)
		if err != nil {
			t.Fatalf("oversize reply undecodable: %v", err)
		}
		if !bin {
			t.Fatal("oversize error for a binary request came back as JSON")
		}
		if resp.OK || !strings.Contains(resp.Error, "request too large") {
			t.Fatalf("oversize reply = %+v", resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply to the oversized datagram")
	}
	if got := reg.Snapshot().Counters["crpd.oversized_requests"]; got != 1 {
		t.Fatalf("crpd.oversized_requests = %d, want 1", got)
	}

	// The same bytes through Handle — the entry point a mem-transport plan
	// serves through — are counted and answered the same way.
	hreg := obs.NewRegistry()
	h, err := New(crp.NewService(), Config{Registry: hreg})
	if err != nil {
		t.Fatal(err)
	}
	resp, bin, err := DecodeResponse(h.Handle(payload))
	if err != nil || !bin || resp.OK || !strings.Contains(resp.Error, "request too large") {
		t.Fatalf("Handle oversize reply = %+v bin=%v err=%v", resp, bin, err)
	}
	counters := hreg.Snapshot().Counters
	if counters["crpd.oversized_requests"] != 1 || counters["crpd.bad_requests"] != 0 {
		t.Fatalf("Handle: oversized_requests = %d, bad_requests = %d; want 1, 0",
			counters["crpd.oversized_requests"], counters["crpd.bad_requests"])
	}
}

// TestOpTable pins the op table's wire contract: every op's binary opcode,
// the pool and ns-scoping sets, and the per-op instrument names a daemon
// registers.
func TestOpTable(t *testing.T) {
	codes := map[string]byte{
		"observe": 0, "ratio_map": 1, "similarity": 2, "closest": 3,
		"nodes": 4, "stats": 5, "same_cluster": 6, "distinct_clusters": 7,
		"peer-join": 8, "peer-status": 9, "drift-status": 10,
	}
	for name, code := range codes {
		raw, err := EncodeRequest(&Request{Op: name}, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if raw[3] != code { // the opcode follows magic, version and kind
			t.Errorf("%s: opcode %d, want %d", name, raw[3], code)
		}
	}
	if int(opBatch) != len(codes) || len(opTable) != len(codes)+1 {
		t.Fatalf("opTable has %d rows with batch at %d; want %d ops then batch", len(opTable), opBatch, len(codes))
	}

	var heavy, scoped []string
	for _, row := range opTable {
		if row.heavy {
			heavy = append(heavy, row.name)
		}
		if row.ns {
			scoped = append(scoped, row.name)
		}
	}
	slices.Sort(heavy)
	slices.Sort(scoped)
	if got := strings.Join(heavy, ","); got != "distinct_clusters,same_cluster" {
		t.Errorf("heavy ops = %s", got)
	}
	if got := strings.Join(scoped, ","); got != "closest,ratio_map,similarity" {
		t.Errorf("ns-scoped ops = %s", got)
	}

	reg := obs.NewRegistry()
	if _, err := New(crp.NewService(), Config{Registry: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var got []string
	for name := range snap.Counters {
		if strings.HasPrefix(name, "crpd.requests.") || strings.HasPrefix(name, "crpd.errors.") {
			got = append(got, name)
		}
	}
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "crpd.latency.") {
			got = append(got, name)
		}
	}
	var want []string
	for op := range codes {
		want = append(want, "crpd.requests."+op, "crpd.errors."+op, "crpd.latency."+op)
	}
	want = append(want, "crpd.requests.batch", "crpd.errors.batch", "crpd.latency.batch")
	slices.Sort(got)
	slices.Sort(want)
	if len(want) != 36 || !slices.Equal(got, want) {
		t.Fatalf("per-op instruments:\n got %v\nwant %v", got, want)
	}
}

// corruptedRequestSeeds returns hand-built malformed binary requests for the
// checked-in fuzz corpus, one per decoder rejection path.
func corruptedRequestSeeds(valid [][]byte) [][]byte {
	var out [][]byte
	for _, raw := range valid {
		out = append(out, raw[:len(raw)/2])
		out = append(out, append(append([]byte(nil), raw...), 0))
	}
	bad := append([]byte(nil), valid[0]...)
	bad[1] = binVersion + 1
	out = append(out, bad)
	var e binwire.Enc
	e.U8(binMagic)
	e.U8(binVersion)
	e.U8(kindReq)
	e.U8(200) // unknown opcode
	out = append(out, append([]byte(nil), e.Bytes()...))
	return out
}

// FuzzDecodeBinaryRequest fuzzes the binary request decoder specifically:
// never panic, never accept an out-of-bounds request, and everything
// accepted re-encodes canonically and survives the full handler with a
// codec-matched reply. The checked-in corpus under testdata/fuzz seeds
// every op plus the corruption shapes above (regenerate with
// REGEN_FUZZ_CORPUS=1).
func FuzzDecodeBinaryRequest(f *testing.F) {
	var valid [][]byte
	for _, r := range sampleRequests() {
		raw, err := EncodeRequest(&r, true)
		if err != nil {
			f.Fatal(err)
		}
		valid = append(valid, raw)
		f.Add(raw)
	}
	for _, raw := range corruptedRequestSeeds(valid) {
		f.Add(raw)
	}
	d, _ := startDaemon(f, Config{Registry: obs.NewRegistry()}, crp.WithWindow(8))
	f.Cleanup(func() { d.Close() })

	f.Fuzz(func(t *testing.T, raw []byte) {
		req, bin, err := DecodeRequest(raw)
		if err != nil {
			return
		}
		if len(req.Node) > MaxIDBytes || len(req.Replicas) > MaxListEntries ||
			len(req.Candidates) > MaxListEntries || req.K < 0 || req.K > MaxK ||
			req.N < 0 || req.N > MaxN || len(req.Batch) > MaxBatch {
			t.Fatalf("decoder accepted out-of-bounds request: %+v", req)
		}
		if bin {
			re, err := EncodeRequest(&req, true)
			if err != nil {
				t.Fatalf("decoded request unencodable: %v", err)
			}
			req2, _, err := DecodeRequest(re)
			if err != nil {
				t.Fatalf("re-encoded request undecodable: %v", err)
			}
			if reqJSON(t, req) != reqJSON(t, req2) {
				t.Fatal("re-encode round trip drifted")
			}
		}
		wire := d.Handle(raw)
		_, respBin, err := DecodeResponse(wire)
		if err != nil {
			t.Fatalf("Handle reply undecodable: %v (%q)", err, wire)
		}
		if respBin != bin {
			t.Fatalf("request codec bin=%v but reply codec bin=%v", bin, respBin)
		}
	})
}

// TestGenerateFuzzCorpus writes the checked-in seed corpus for
// FuzzDecodeBinaryRequest.
func TestGenerateFuzzCorpus(t *testing.T) {
	var valid [][]byte
	for _, r := range sampleRequests() {
		raw, err := EncodeRequest(&r, true)
		if err != nil {
			t.Fatal(err)
		}
		valid = append(valid, raw)
	}
	fuzzcorpus.Write(t, "FuzzDecodeBinaryRequest", append(valid, corruptedRequestSeeds(valid)...))
}
