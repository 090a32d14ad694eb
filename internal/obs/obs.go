// Package obs is a dependency-free observability layer: atomic counters,
// gauges and fixed-bucket latency histograms collected in a Registry whose
// Snapshot is a plain JSON-marshalable value. It exists so the hot paths —
// crpd request handling, crp.Service queries, the DNS front end and the CDN
// mapping system — can be measured under production-style concurrent load
// without pulling in a metrics dependency or perturbing the measured code
// (every instrument is a single atomic op on the fast path).
//
// All instrument methods are safe on a nil receiver (they no-op), so code
// can hold instrument pointers unconditionally and run uninstrumented when
// no registry is wired up.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level (e.g., requests in flight).
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Inc moves the gauge up by one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec moves the gauge down by one.
func (g *Gauge) Dec() { g.Add(-1) }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram. Bucket i counts observations v with
// bounds[i-1] < v <= bounds[i]; one implicit overflow bucket counts values
// above the last bound. Observations are lock-free (one atomic add per
// bucket plus a CAS loop for the running sum).
type Histogram struct {
	bounds []float64       // ascending upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	sum    atomic.Uint64   // math.Float64bits of the running sum
}

// LatencyBuckets are the default upper bounds (in seconds) for request
// latency histograms: ~50µs to 2.5s, roughly exponential. The range covers
// both the sub-millisecond cheap ops and multi-hundred-millisecond SMF
// clustering requests crpd serves.
var LatencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5,
}

// newHistogram builds a histogram over a defensive copy of bounds, which
// must be ascending and non-empty.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v; values above every bound land in the overflow slot.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records an elapsed time in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Snapshot captures the histogram's current state. Count always equals the
// sum of Counts (it is derived at capture time), so a snapshot taken during
// concurrent Observes is internally consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	// Bounds are the ascending bucket upper bounds; Counts has one extra
	// trailing element for observations above the last bound.
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean returns the average observed value, or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket holding the target rank. Values in the overflow bucket
// are attributed to the last finite bound, so tail quantiles are a lower
// bound when observations exceeded the histogram's range.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Registry is a named collection of instruments. Lookups get-or-create, so
// packages can grab their instruments at init time in any order; the zero
// name rules are "first registration wins" (a histogram re-registered with
// different bounds keeps the original bounds).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Library packages (crp, cdn,
// faults) register their instruments here, mirroring expvar's
// model, so one snapshot shows the whole stack.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (nil bounds = LatencyBuckets). A nil registry
// returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument in a registry,
// shaped for JSON export.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument. Individual instruments are captured
// atomically (histograms are internally consistent); the set as a whole is
// a best-effort cut across concurrently moving values, which is the usual
// contract for scrape-style metric export.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]uint64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for n, c := range counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range hists {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

// SummarizeGaugeFamily collapses a numbered gauge family — every gauge named
// prefix + digits + suffix — into summary gauges named out + ".count",
// ".sum", ".min", ".mean", ".max" and ".p99" (nearest-rank), removing the
// family members from the snapshot. It exists for wire export: a snapshot
// carrying one gauge per store shard (up to 1024 since the store widened)
// can exceed a UDP reply's size budget, while the summary is six fields
// regardless of shard count. The in-process registry keeps full detail; only
// the exported copy is collapsed. No-op when no family member matches.
func (s *Snapshot) SummarizeGaugeFamily(prefix, suffix, out string) {
	var values []int64
	for name, v := range s.Gauges {
		if len(name) <= len(prefix)+len(suffix) ||
			name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
			continue
		}
		mid := name[len(prefix) : len(name)-len(suffix)]
		digits := len(mid) > 0
		for i := 0; i < len(mid); i++ {
			if mid[i] < '0' || mid[i] > '9' {
				digits = false
				break
			}
		}
		if !digits {
			continue
		}
		values = append(values, v)
		delete(s.Gauges, name)
	}
	if len(values) == 0 {
		return
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	sum := int64(0)
	for _, v := range values {
		sum += v
	}
	rank := (99*len(values) + 99) / 100 // nearest-rank p99, 1-based
	if rank > len(values) {
		rank = len(values)
	}
	s.Gauges[out+".count"] = int64(len(values))
	s.Gauges[out+".sum"] = sum
	s.Gauges[out+".min"] = values[0]
	s.Gauges[out+".mean"] = int64(math.Round(float64(sum) / float64(len(values))))
	s.Gauges[out+".max"] = values[len(values)-1]
	s.Gauges[out+".p99"] = values[rank-1]
}
