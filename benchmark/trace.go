package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/crp"
	"repro/internal/crpdaemon"
)

// span is one timed call into a layer. Spans of one request share Req; Parent
// is the ID of the span that caused this one (0 for a request's root).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Role   string `json:"role,omitempty"` // "primary" or "bg" stream of the workload
	Start  int64  `json:"start_ns"`       // since the traced pass began
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // End−Start minus the child spans; filled in when written
	Units  int    `json:"units,omitempty"`
	// AllocSampled spans were bracketed by runtime.ReadMemStats to count
	// their mallocs; that stops the world, so their times are not used.
	AllocSampled bool  `json:"alloc_sampled,omitempty"`
	Allocs       int64 `json:"allocs,omitempty"`
}

// tracer holds spans in memory until the run ends. Its capacity is fixed up
// front so recording a span never allocates inside a measured call.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) full() bool { return len(t.spans)+8 > cap(t.spans) }

func (t *tracer) begin(name, role string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Role: role, ID: len(t.spans) + 1, Parent: parent, Req: req})
	t.spans[len(t.spans)-1].Start = int64(time.Since(t.t0))
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// call records fn as one span; when sampled it also counts fn's mallocs.
func (t *tracer) call(name, role string, parent, req int, sampled bool, fn func()) int {
	var before, after runtime.MemStats
	if sampled {
		runtime.ReadMemStats(&before)
	}
	id := t.begin(name, role, parent, req)
	fn()
	t.end(id)
	if sampled {
		runtime.ReadMemStats(&after)
		t.spans[id-1].AllocSampled = true
		t.spans[id-1].Allocs = int64(after.Mallocs - before.Mallocs)
	}
	return id
}

// micros returns the durations of the unsampled spans of one name and role
// ("" matches any role), per unit when asked.
func (t *tracer) micros(name, role string, perUnit bool) []float64 {
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != name || s.AllocSampled || (role != "" && s.Role != role) {
			continue
		}
		us := float64(s.End-s.Start) / 1e3
		if perUnit {
			us /= float64(max(s.Units, 1))
		}
		out = append(out, us)
	}
	return out
}

// allocs returns the mean mallocs per unit of the alloc-sampled spans.
func (t *tracer) allocs(name, role string) float64 {
	var sum, units float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != name || !s.AllocSampled || (role != "" && s.Role != role) {
			continue
		}
		sum += float64(s.Allocs)
		units += float64(max(s.Units, 1))
	}
	if units == 0 {
		return 0
	}
	return sum / units
}

// write fills in self times and writes a header line naming the run, then
// one JSON span per line.
func (t *tracer) write(w io.Writer, workload string, seed int64) error {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for i := range t.spans {
		if p := t.spans[i].Parent; p > 0 {
			t.spans[p-1].Self -= t.spans[i].End - t.spans[i].Start
		}
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"workload": workload, "seed": seed, "spans": len(t.spans)}); err != nil {
		return err
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

const (
	rolePrimary = "primary"
	roleBG      = "bg"
	// allocEvery: one request in this many, per role and path, is bracketed
	// by ReadMemStats instead of being timed.
	allocEvery = 8
	jsonPairs  = 200 // requests re-encoded as JSON to time that codec
)

// traceCrpd replays the workload's streams in-process on a socketless
// daemon over the same service, alternating per request between the whole
// path (Daemon.Handle) and the split path (DecodeRequest → the crp.Service
// method → Response → EncodeResponseWire), so every mutation lands exactly
// once. One background request follows every bgEvery primary ones.
func traceCrpd(svc *crp.Service, primary, bg *stream, bgEvery int, budget time.Duration, maxReqs int) (*tracer, error) {
	d, err := crpdaemon.New(svc, crpdaemon.Config{})
	if err != nil {
		return nil, err
	}
	t := newTracer(maxReqs*4 + 4*jsonPairs + 16)
	type pair struct {
		req  crpdaemon.Request
		resp crpdaemon.Response
	}
	var pairs []pair
	seen := map[string]int{}
	for req := 1; req <= maxReqs && time.Since(t.t0) < budget && !t.full(); req++ {
		s, role := primary, rolePrimary
		if bg != nil && req%(bgEvery+1) == 0 {
			s, role = bg, roleBG
		}
		n := seen[role]
		seen[role]++
		raw := s.next()
		sampled := (n/2)%allocEvery == 0
		var wire []byte
		if n%2 == 0 {
			t.call("crpdaemon.handle", role, 0, req, sampled, func() { wire = d.Handle(raw) })
		} else {
			var r crpdaemon.Request
			var resp crpdaemon.Response
			root := t.begin("split", role, 0, req)
			r, resp, wire, err = splitPath(t, svc, raw, role, root, req, sampled)
			t.end(root)
			t.spans[root-1].AllocSampled = sampled
			if err != nil {
				return nil, fmt.Errorf("traced request %d: %w", req, err)
			}
			if role == rolePrimary && len(pairs) < jsonPairs {
				pairs = append(pairs, pair{r, resp})
			}
		}
		resp, _, err := crpdaemon.DecodeResponse(wire)
		if err != nil {
			return nil, fmt.Errorf("traced request %d: %w", req, err)
		}
		if msg := s.valid(&resp); msg != "" {
			return nil, fmt.Errorf("traced request %d: %s", req, msg)
		}
	}
	// The codecs are pure functions, so the JSON codec is timed on the same
	// requests without a workload of its own.
	for i, p := range pairs {
		raw, err := crpdaemon.EncodeRequest(&p.req, false)
		if err != nil {
			return nil, err
		}
		t.call("crpdaemon.decode_json", rolePrimary, 0, -i-1, false, func() { _, _, err = crpdaemon.DecodeRequest(raw) })
		if err != nil {
			return nil, err
		}
		t.call("crpdaemon.encode_json", rolePrimary, 0, -i-1, false, func() { crpdaemon.EncodeResponseWire(&p.resp, false) })
	}
	return t, nil
}

// splitPath serves one request the way Daemon.dispatch does, with a span
// around each layer's call. The conversions between the calls are the
// daemon's own dispatch work and stay in the root span's self time.
func splitPath(t *tracer, svc *crp.Service, raw []byte, role string, root, req int, sampled bool) (r crpdaemon.Request, resp crpdaemon.Response, wire []byte, err error) {
	var bin bool
	t.call("crpdaemon.decode", role, root, req, sampled, func() { r, bin, err = crpdaemon.DecodeRequest(raw) })
	if err != nil {
		return r, resp, nil, err
	}
	switch r.Op {
	case "similarity":
		var sim float64
		t.call("crp.query", role, root, req, sampled, func() { sim, err = svc.Similarity(crp.NodeID(r.A), crp.NodeID(r.B)) })
		resp = crpdaemon.Response{OK: true, Similarity: &sim}
	case "closest":
		var cands []crp.NodeID
		if r.Candidates != nil {
			cands = make([]crp.NodeID, len(r.Candidates))
			for i, c := range r.Candidates {
				cands[i] = crp.NodeID(c)
			}
		}
		var ranked []crp.Scored
		t.call("crp.query", role, root, req, sampled, func() { ranked, err = svc.TopK(crp.NodeID(r.Client), cands, max(r.K, 1)) })
		out := make([]crpdaemon.RankedNode, len(ranked))
		for i, s := range ranked {
			out[i] = crpdaemon.RankedNode{Node: string(s.Node), Similarity: s.Similarity}
		}
		resp = crpdaemon.Response{OK: true, Ranked: out}
	case "batch":
		replicas := make([][]crp.ReplicaID, len(r.Batch))
		for i := range r.Batch {
			if r.Batch[i].Op != "observe" {
				return r, resp, nil, fmt.Errorf("split path: batch of %q", r.Batch[i].Op)
			}
			replicas[i] = make([]crp.ReplicaID, len(r.Batch[i].Replicas))
			for j, id := range r.Batch[i].Replicas {
				replicas[i][j] = crp.ReplicaID(id)
			}
		}
		out := make([]crpdaemon.Response, len(r.Batch))
		id := t.call("crp.observe", role, root, req, sampled, func() {
			now := time.Now()
			for i := range r.Batch {
				if e := svc.Observe(crp.NodeID(r.Batch[i].Node), now, replicas[i]...); e != nil {
					err = e
				}
				out[i].OK = true
			}
		})
		t.spans[id-1].Units = len(r.Batch)
		resp = crpdaemon.Response{OK: true, Batch: out}
	default:
		err = fmt.Errorf("split path: op %q", r.Op)
	}
	if err != nil {
		return r, resp, nil, err
	}
	t.call("crpdaemon.encode", role, root, req, sampled, func() { wire = crpdaemon.EncodeResponseWire(&resp, bin) })
	return r, resp, wire, nil
}
