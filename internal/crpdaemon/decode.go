package crpdaemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/crp"
	"repro/internal/binwire"
)

// Wire-field bounds. The daemon fronts an in-memory store keyed by
// client-supplied strings, so every field that sizes an allocation or a key
// is bounded before the request reaches a worker: a hostile or corrupted
// datagram must cost one structured error reply, not memory or CPU.
const (
	// MaxRequestSize bounds the raw datagram at the IPv4 UDP payload ceiling
	// (65535 - 8 UDP - 20 IP), symmetric with MaxReplySize. It used to be
	// 64 KiB — a bound no UDP datagram can reach, so the 65508..65536 band
	// was dead acceptance range; now the bound states exactly what the wire
	// can carry. The read loop reads with a buffer one byte larger so a
	// datagram exceeding the bound is detectable rather than silently
	// kernel-truncated into the decoder.
	MaxRequestSize = 65507
	// MaxIDBytes bounds every identity field (node, replica, candidate).
	// Identities are DNS names in practice, which cap at 255 octets.
	MaxIDBytes = 255
	// MaxListEntries bounds the replicas and candidates lists.
	MaxListEntries = 10000
	// MaxK bounds top-k requests; MaxN bounds the sweep width.
	MaxK = 10000
	MaxN = 1 << 20
	// MaxBatch bounds the sub-requests of one batch datagram. Each
	// sub-request is individually bounds-checked; batches don't nest.
	MaxBatch = 64
	// MaxNSBytes bounds the ns (CDN namespace) field; it mirrors
	// crp.MaxNamespaceBytes.
	MaxNSBytes = 64
)

// errTooLarge refuses a request over MaxRequestSize. It carries no byte
// count: a datagram the socket loop read is cut at MaxRequestSize+1.
var errTooLarge = fmt.Errorf("request too large: exceeds the %d-byte limit", MaxRequestSize)

// DecodeRequest parses and bounds-checks one wire request in either codec,
// routed by the first byte (binMagic means binary; JSON starts with '{').
// It is the daemon's one decoder — its intake runs it on every datagram
// from the socket loop and Handle alike — exported so benches and tools can
// measure and exercise it. The returned bin flag reports the request codec;
// replies go back the same way.
func DecodeRequest(raw []byte) (Request, bool, error) {
	bin := len(raw) > 0 && raw[0] == binMagic
	if len(raw) > MaxRequestSize {
		return Request{}, bin, errTooLarge
	}
	if bin {
		req, err := decodeBinaryRequest(raw)
		if err != nil {
			return req, true, err
		}
		return req, true, checkRequest(&req)
	}
	var req Request
	if err := json.Unmarshal(raw, &req); err != nil {
		return req, false, fmt.Errorf("bad request: %v", err)
	}
	return req, false, checkRequest(&req)
}

// checkRequest validates the decoded fields against the wire bounds. A
// batch request validates its envelope and then every sub-request.
func checkRequest(req *Request) error {
	if req.Op != "batch" {
		if len(req.Batch) > 0 {
			return fmt.Errorf("op %q cannot carry sub-requests", req.Op)
		}
		return checkSingleRequest(req)
	}
	if len(req.Batch) == 0 {
		return fmt.Errorf("batch request carries no sub-requests")
	}
	if len(req.Batch) > MaxBatch {
		return fmt.Errorf("batch has %d sub-requests, limit %d", len(req.Batch), MaxBatch)
	}
	for i := range req.Batch {
		if err := checkSingleRequest(&req.Batch[i]); err != nil {
			return fmt.Errorf("batch[%d]: %v", i, err)
		}
	}
	return nil
}

// checkSingleRequest validates one non-batch request: its op must name a
// row — so an unknown op fails here, in both codecs, alone or in a batch
// slot — and not "batch", since batches cannot nest; its fields must be in
// bounds.
func checkSingleRequest(req *Request) error {
	if op, err := lookupOp(req.Op); err != nil {
		return err
	} else if op == opBatch {
		return errors.New("batches cannot nest")
	}
	for _, f := range []struct{ name, v string }{
		{"node", req.Node}, {"a", req.A}, {"b", req.B},
		{"client", req.Client}, {"addr", req.Addr},
	} {
		if err := binwire.CheckID(f.name, f.v, MaxIDBytes); err != nil {
			return err
		}
	}
	if len(req.Replicas) > MaxListEntries {
		return fmt.Errorf("replicas list has %d entries, limit %d", len(req.Replicas), MaxListEntries)
	}
	if len(req.Candidates) > MaxListEntries {
		return fmt.Errorf("candidates list has %d entries, limit %d", len(req.Candidates), MaxListEntries)
	}
	if err := checkIDs("replicas", req.Replicas); err != nil {
		return err
	}
	if err := checkIDs("candidates", req.Candidates); err != nil {
		return err
	}
	if req.NS != "" {
		if err := crp.Namespace(req.NS).Valid(); err != nil {
			return fmt.Errorf("ns: %v", err)
		}
	}
	if req.K < 0 || req.K > MaxK {
		return fmt.Errorf("k %d outside [0, %d]", req.K, MaxK)
	}
	if req.N < 0 || req.N > MaxN {
		return fmt.Errorf("n %d outside [0, %d]", req.N, MaxN)
	}
	// Finite, as JSON carries it: the one check both codecs run when
	// encoding and when decoding, so anything encoded is also decodable.
	if t := req.Threshold; t != nil && (math.IsNaN(*t) || math.IsInf(*t, 0)) {
		return errors.New("threshold: bad value")
	}
	return nil
}

// checkIDs bounds every entry of an ID list. The indexed field name
// ("candidates[119]") is built only for the entry that fails, so a valid
// list costs no allocation.
func checkIDs(field string, ids []string) error {
	for i, id := range ids {
		if binwire.CheckID(field, id, MaxIDBytes) != nil {
			return binwire.CheckID(fmt.Sprintf("%s[%d]", field, i), id, MaxIDBytes)
		}
	}
	return nil
}
