package crpdaemon

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/binwire"
	"repro/internal/drift"
	"repro/internal/obs"
	"repro/internal/peering"
)

// Compact binary codec for the crpd query protocol. One datagram is:
//
//	byte 0  binMagic (0xCB — never a valid JSON first byte, so the first
//	        byte routes the codec; distinct from the gossip plane's magic)
//	byte 1  binVersion
//	byte 2  frame kind: kindReq / kindResp for a single message,
//	        kindBatchReq / kindBatchResp for a uvarint-counted batch of
//	        bodies (1..MaxBatch; batches don't nest)
//	then the request or response body/bodies.
//
// A request body is: opcode u8, flags u8 (bit0 threshold present, bit1
// candidates present — a nil candidates list means "rank against every
// known node", so presence must survive the wire; bit2 ns present), node,
// a, b, client, addr strings, replicas (count + strings), [candidates
// (count + strings)], k uvarint, n uvarint, [threshold f64], [ns string].
// The ns field rides at the end of the body behind its presence bit, so a
// pre-namespace encoder's frames decode unchanged under the same version
// byte — no version bump, no corpus invalidation.
//
// A response body is: flags uvarint (presence bits below; a u8 through
// version 1, widened when the ninth bit arrived with drift-status), error
// string, [similarity f64], [ratioMap: count + sorted (key, f64) pairs —
// sorted so identical responses are byte-identical], [nodes: count +
// strings], [ranked: count + (node, similarity) pairs], [stats JSON blob],
// [peering JSON blob], [drift JSON blob]. The stats, peering and drift
// payloads are introspection documents — nested, schema-churning, and far
// off the hot path — so they ride as length-prefixed JSON rather than
// getting a parallel binary schema.
const (
	binMagic = 0xCB
	// binVersion 2 widened the response flags from u8 to uvarint; version
	// mismatches fail decode cleanly, and both ends of every deployment
	// ship from this tree.
	binVersion    = 2
	kindReq       = 0x01
	kindResp      = 0x02
	kindBatchReq  = 0x03
	kindBatchResp = 0x04

	// maxErrBytes bounds a decoded error string; the daemon's own errors are
	// short format strings.
	maxErrBytes = 4096
	// maxBlobBytes bounds the embedded stats/peering JSON documents. A reply
	// can never legally exceed MaxReplySize, so neither can a blob in it.
	maxBlobBytes = MaxReplySize
)

// Response flag bits.
const (
	respOK = 1 << iota
	respTimedOut
	respHasSimilarity
	respHasRatioMap
	respHasNodes
	respHasRanked
	respHasStats
	respHasPeering
	respHasDrift
)

// EncodeRequest marshals one request in the chosen codec, validating it
// first so anything encoded is also decodable. Clients (and the bench) use
// this; the daemon only decodes requests.
func EncodeRequest(req *Request, bin bool) ([]byte, error) {
	if err := checkRequest(req); err != nil {
		return nil, err
	}
	if !bin {
		return json.Marshal(req)
	}
	// Sized once, to an upper bound: the header, a batch count and every
	// body (a batch envelope's own empty body included).
	size := 3 + binwire.UvarintLen(uint64(len(req.Batch))) + requestBodyLen(req)
	for i := range req.Batch {
		size += requestBodyLen(&req.Batch[i])
	}
	var e binwire.Enc
	e.Grow(size)
	e.U8(binMagic)
	e.U8(binVersion)
	if req.Op == "batch" {
		e.U8(kindBatchReq)
		e.Uvarint(uint64(len(req.Batch)))
		for i := range req.Batch {
			if err := encodeRequestBody(&e, &req.Batch[i]); err != nil {
				return nil, fmt.Errorf("batch[%d]: %v", i, err)
			}
		}
	} else {
		e.U8(kindReq)
		if err := encodeRequestBody(&e, req); err != nil {
			return nil, err
		}
	}
	return e.Bytes(), nil
}

// requestBodyLen is the encoded size of one request body, as
// encodeRequestBody writes it.
func requestBodyLen(req *Request) int {
	n := 2 + binwire.StringLen(req.Node) + binwire.StringLen(req.A) + binwire.StringLen(req.B) +
		binwire.StringLen(req.Client) + binwire.StringLen(req.Addr) +
		idsLen(req.Replicas) + binwire.UvarintLen(uint64(req.K)) + binwire.UvarintLen(uint64(req.N))
	if req.Candidates != nil {
		n += idsLen(req.Candidates)
	}
	if req.Threshold != nil {
		n += 8
	}
	if req.NS != "" {
		n += binwire.StringLen(req.NS)
	}
	return n
}

// idsLen is the encoded size of a counted string list.
func idsLen(ids []string) int {
	n := binwire.UvarintLen(uint64(len(ids)))
	for _, id := range ids {
		n += binwire.StringLen(id)
	}
	return n
}

func encodeRequestBody(e *binwire.Enc, req *Request) error {
	op, err := lookupOp(req.Op)
	if err != nil {
		return err
	}
	e.U8(byte(op))
	flags := presence(req.Threshold != nil, req.Candidates != nil, req.NS != "")
	e.U8(byte(flags))
	e.String(req.Node)
	e.String(req.A)
	e.String(req.B)
	e.String(req.Client)
	e.String(req.Addr)
	e.Uvarint(uint64(len(req.Replicas)))
	for _, r := range req.Replicas {
		e.String(r)
	}
	if req.Candidates != nil {
		e.Uvarint(uint64(len(req.Candidates)))
		for _, c := range req.Candidates {
			e.String(c)
		}
	}
	e.Uvarint(uint64(req.K))
	e.Uvarint(uint64(req.N))
	if req.Threshold != nil {
		e.F64(*req.Threshold)
	}
	if flags&4 != 0 {
		e.String(req.NS)
	}
	return nil
}

// presence packs one flag bit per field, the first argument in bit 0.
func presence(set ...bool) (flags uint64) {
	for i, ok := range set {
		if ok {
			flags |= 1 << i
		}
	}
	return flags
}

// decodeHeader reads the three bytes every frame opens with — the magic
// (already sniffed by the caller), the version and the frame kind — and
// returns the kind. what names the frame in errors.
func decodeHeader(d *binwire.Dec, what string) (byte, error) {
	_, err := d.U8()
	var ver, kind byte
	if err == nil {
		ver, err = d.U8()
	}
	if err == nil && ver != binVersion {
		return 0, fmt.Errorf("unsupported binary version %d", ver)
	}
	if err == nil {
		kind, err = d.U8()
	}
	if err != nil {
		return 0, fmt.Errorf("bad %s: %v", what, err)
	}
	return kind, nil
}

// decodeBinaryRequest parses a binary-codec request datagram. Structural
// bounds live here; the caller runs checkRequest on the result, the same
// semantic validation the JSON path gets.
func decodeBinaryRequest(raw []byte) (Request, error) {
	var req Request
	d := binwire.NewDec(raw)
	kind, err := decodeHeader(d, "request")
	if err != nil {
		return req, err
	}
	switch kind {
	case kindReq:
		if err := decodeRequestBody(d, &req); err != nil {
			return req, err
		}
	case kindBatchReq:
		// An empty batch decodes; checkRequest refuses it.
		n, err := d.Count(MaxBatch, 2)
		if err != nil {
			return req, fmt.Errorf("batch: %v", err)
		}
		req.Op = "batch"
		req.Batch = make([]Request, n)
		for i := range req.Batch {
			if err := decodeRequestBody(d, &req.Batch[i]); err != nil {
				return req, fmt.Errorf("batch[%d]: %v", i, err)
			}
		}
	default:
		return req, fmt.Errorf("unexpected frame kind 0x%02x in a request", kind)
	}
	if err := d.Done(); err != nil {
		return req, fmt.Errorf("bad request: %v", err)
	}
	return req, nil
}

func decodeRequestBody(d *binwire.Dec, req *Request) error {
	code, err := d.U8()
	if err != nil {
		return err
	}
	if code >= byte(opBatch) {
		return fmt.Errorf("unknown opcode %d", code)
	}
	req.Op = opTable[code].name
	flags, err := d.U8()
	if err != nil {
		return err
	}
	if flags > 7 {
		return fmt.Errorf("reserved request flags 0x%02x", flags)
	}
	// The five scalar IDs are cut from one string, and each ID list from
	// one of its own, never from the datagram: a retained ID must not pin
	// the frame.
	if err = d.StringsTo(MaxIDBytes, &req.Node, &req.A, &req.B, &req.Client, &req.Addr); err != nil {
		return err
	}
	n, err := d.Count(MaxListEntries, 1)
	if err != nil {
		return err
	}
	if n > 0 {
		if req.Replicas, err = d.Strings(n, MaxIDBytes); err != nil {
			return err
		}
	}
	if flags&2 != 0 {
		if n, err = d.Count(MaxListEntries, 1); err != nil {
			return err
		}
		// Present-but-empty stays a non-nil empty list: "no candidates",
		// not "all nodes".
		if req.Candidates, err = d.Strings(n, MaxIDBytes); err != nil {
			return err
		}
	}
	k, err := d.Uvarint()
	if err != nil || k > MaxK {
		return fmt.Errorf("k: bad value")
	}
	req.K = int(k)
	nn, err := d.Uvarint()
	if err != nil || nn > MaxN {
		return fmt.Errorf("n: bad value")
	}
	req.N = int(nn)
	if flags&1 != 0 {
		t, err := d.F64()
		if err != nil {
			return fmt.Errorf("threshold: bad value")
		}
		req.Threshold = &t
	}
	if flags&4 != 0 {
		if req.NS, err = d.String(MaxNSBytes); err != nil {
			return err
		}
	}
	return nil
}

// EncodeResponseWire marshals one response in the chosen codec. It cannot
// fail: the daemon built the response, and unrepresentable shapes don't
// occur. It carries no reply-size policy — the daemon's own replies go
// through encodeBounded, which adds the oversize degradation on top — and is
// exported so benches and tools can produce representative reply datagrams.
func EncodeResponseWire(resp *Response, bin bool) []byte {
	return appendResponseWire(nil, resp, bin)
}

// appendResponseWire is EncodeResponseWire appending to dst, so a goroutine
// that writes replies encodes each into the buffer it kept from the last.
func appendResponseWire(dst []byte, resp *Response, bin bool) []byte {
	if !bin {
		// By value: a pointer would move every encoded response to the heap.
		b, err := json.Marshal(*resp)
		if err != nil {
			// Unreachable; fail closed with a static error.
			b = []byte(`{"ok":false,"error":"internal marshal failure"}`)
		}
		if dst == nil {
			return b
		}
		return append(dst, b...)
	}
	// Sized once for everything but the JSON blobs, which are rare and
	// grow the buffer themselves.
	size := 3 + binwire.UvarintLen(uint64(len(resp.Batch))) + responseBodyLen(resp)
	for i := range resp.Batch {
		size += responseBodyLen(&resp.Batch[i])
	}
	e := binwire.NewEnc(dst)
	e.Grow(size)
	e.U8(binMagic)
	e.U8(binVersion)
	if len(resp.Batch) > 0 {
		e.U8(kindBatchResp)
		e.Uvarint(uint64(len(resp.Batch)))
		for i := range resp.Batch {
			encodeResponseBody(e, &resp.Batch[i])
		}
	} else {
		e.U8(kindResp)
		encodeResponseBody(e, resp)
	}
	return e.Bytes()
}

// responseBodyLen is the encoded size of one response body's non-blob
// fields, as encodeResponseBody writes them (flags fit in two bytes).
func responseBodyLen(resp *Response) int {
	n := 2 + binwire.StringLen(resp.Error)
	if resp.Similarity != nil {
		n += 8
	}
	if resp.RatioMap != nil {
		n += binwire.UvarintLen(uint64(len(resp.RatioMap)))
		for k := range resp.RatioMap {
			n += binwire.StringLen(k) + 8
		}
	}
	if resp.Nodes != nil {
		n += idsLen(resp.Nodes)
	}
	if resp.Ranked != nil {
		n += binwire.UvarintLen(uint64(len(resp.Ranked)))
		for _, r := range resp.Ranked {
			n += binwire.StringLen(r.Node) + 8
		}
	}
	return n
}

func encodeResponseBody(e *binwire.Enc, resp *Response) {
	// One bit per field, in the order of the resp* constants.
	flags := presence(resp.OK, resp.TimedOut, resp.Similarity != nil, resp.RatioMap != nil,
		resp.Nodes != nil, resp.Ranked != nil, resp.Stats != nil, resp.Peering != nil, resp.Drift != nil)
	e.Uvarint(flags)
	e.String(resp.Error)
	if resp.Similarity != nil {
		e.F64(*resp.Similarity)
	}
	if resp.RatioMap != nil {
		keys := make([]string, 0, len(resp.RatioMap))
		for k := range resp.RatioMap {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.String(k)
			e.F64(resp.RatioMap[k])
		}
	}
	if resp.Nodes != nil {
		e.Uvarint(uint64(len(resp.Nodes)))
		for _, n := range resp.Nodes {
			e.String(n)
		}
	}
	if resp.Ranked != nil {
		e.Uvarint(uint64(len(resp.Ranked)))
		for _, r := range resp.Ranked {
			e.String(r.Node)
			e.F64(r.Similarity)
		}
	}
	// The JSON blobs, in wire order; their flag bits are consecutive.
	for i, doc := range [...]any{resp.Stats, resp.Peering, resp.Drift} {
		if flags&(respHasStats<<i) != 0 {
			b, err := json.Marshal(doc)
			if err != nil {
				b = []byte("{}")
			}
			e.Blob(b)
		}
	}
}

// DecodeResponse parses one reply in either codec, routed by the first
// byte. Clients (and the bench) use this; the bin flag reports which codec
// the server answered in.
func DecodeResponse(raw []byte) (Response, bool, error) {
	var resp Response
	if len(raw) > 0 && raw[0] == binMagic {
		resp, err := decodeBinaryResponse(raw)
		return resp, true, err
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return resp, false, fmt.Errorf("bad response: %v", err)
	}
	return resp, false, nil
}

func decodeBinaryResponse(raw []byte) (Response, error) {
	var resp Response
	if len(raw) > MaxReplySize {
		return resp, fmt.Errorf("response too large: %d bytes exceeds the %d-byte limit", len(raw), MaxReplySize)
	}
	d := binwire.NewDec(raw)
	kind, err := decodeHeader(d, "response")
	if err != nil {
		return resp, err
	}
	switch kind {
	case kindResp:
		if err := decodeResponseBody(d, &resp); err != nil {
			return resp, err
		}
	case kindBatchResp:
		n, err := d.Count(MaxBatch, 2)
		if err != nil {
			return resp, fmt.Errorf("batch: %v", err)
		}
		resp.OK = true
		resp.Batch = make([]Response, n)
		for i := range resp.Batch {
			if err := decodeResponseBody(d, &resp.Batch[i]); err != nil {
				return resp, fmt.Errorf("batch[%d]: %v", i, err)
			}
		}
	default:
		return resp, fmt.Errorf("unexpected frame kind 0x%02x in a response", kind)
	}
	if err := d.Done(); err != nil {
		return resp, fmt.Errorf("bad response: %v", err)
	}
	return resp, nil
}

func decodeResponseBody(d *binwire.Dec, resp *Response) error {
	flags, err := d.Uvarint()
	if err != nil {
		return err
	}
	if flags >= respHasDrift<<1 {
		return fmt.Errorf("reserved response flags 0x%x", flags)
	}
	resp.OK = flags&respOK != 0
	resp.TimedOut = flags&respTimedOut != 0
	if resp.Error, err = d.String(maxErrBytes); err != nil {
		return err
	}
	if flags&respHasSimilarity != 0 {
		v, err := d.F64()
		if err != nil {
			return err
		}
		resp.Similarity = &v
	}
	if flags&respHasRatioMap != 0 {
		n, err := d.Count(MaxListEntries, 9)
		if err != nil {
			return err
		}
		resp.RatioMap = make(map[string]float64, n)
		for i := 0; i < n; i++ {
			k, err := d.String(MaxIDBytes)
			if err != nil {
				return err
			}
			v, err := d.F64()
			if err != nil {
				return err
			}
			resp.RatioMap[k] = v
		}
	}
	if flags&respHasNodes != 0 {
		n, err := d.Count(MaxListEntries, 1)
		if err != nil {
			return err
		}
		resp.Nodes = make([]string, n)
		for i := range resp.Nodes {
			if resp.Nodes[i], err = d.String(MaxIDBytes); err != nil {
				return err
			}
		}
	}
	if flags&respHasRanked != 0 {
		n, err := d.Count(MaxListEntries, 9)
		if err != nil {
			return err
		}
		resp.Ranked = make([]RankedNode, n)
		for i := range resp.Ranked {
			if resp.Ranked[i].Node, err = d.String(MaxIDBytes); err != nil {
				return err
			}
			if resp.Ranked[i].Similarity, err = d.F64(); err != nil {
				return err
			}
		}
	}
	if flags&respHasStats != 0 {
		if resp.Stats, err = decodeBlob[obs.Snapshot](d, "stats"); err != nil {
			return err
		}
	}
	if flags&respHasPeering != 0 {
		if resp.Peering, err = decodeBlob[peering.StatusReport](d, "peering"); err != nil {
			return err
		}
	}
	if flags&respHasDrift != 0 {
		if resp.Drift, err = decodeBlob[drift.Status](d, "drift"); err != nil {
			return err
		}
	}
	return nil
}

// decodeBlob reads one length-prefixed JSON document. It returns the
// document: filling a Response field through a pointer would move every
// decoded reply to the heap.
func decodeBlob[T any](d *binwire.Dec, name string) (*T, error) {
	b, err := d.Blob(maxBlobBytes)
	if err != nil {
		return nil, err
	}
	doc := new(T)
	if err := json.Unmarshal(b, doc); err != nil {
		return nil, fmt.Errorf("%s blob: %v", name, err)
	}
	return doc, nil
}
