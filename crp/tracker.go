package crp

import (
	"sync"
	"time"
)

// A probe is one redirection observation: a single DNS lookup of a
// CDN-accelerated name, which may return several replica servers (Akamai
// returns two A records).
type probe struct {
	at       time.Time
	replicas []ReplicaID
}

// Tracker accumulates a node's CDN redirections and derives its ratio map.
// The window is counted in probes, matching the paper's §VI study of "probe
// window sizes, i.e., the number of recent redirections considered in a
// recommendation" (Fig. 9). Tracker is safe for concurrent use.
//
// Each probe contributes equal total weight to the ratio map, split evenly
// across the replicas it returned, so the ratios always sum to 1 as the
// paper's formulation requires.
type Tracker struct {
	mu     sync.Mutex
	window int // max probes kept; 0 = unbounded ("all probes")
	probes []probe

	// Derived state, rebuilt lazily: the compiled vector of the ratio map is
	// cached between observations so repeated queries (the steady state of a
	// positioning service) stop rebuilding it from the probe window. dirty
	// is set by Observe; nothing expires with the wall
	// clock, so a cached vector never goes stale between probes.
	dirty     bool
	cachedVec ratioVec
}

// TrackerOption customizes a Tracker.
type TrackerOption func(*Tracker)

// WithWindow bounds the tracker to the last n probes; n <= 0 keeps all
// probes (the paper's "all probes" configuration).
func WithWindow(n int) TrackerOption {
	return func(t *Tracker) {
		if n < 0 {
			n = 0
		}
		t.window = n
	}
}

// NewTracker returns an empty tracker.
func NewTracker(opts ...TrackerOption) *Tracker {
	t := &Tracker{dirty: true}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// Observe records one probe: the replica servers a single CDN lookup
// returned at the given time. The window keeps the most recently recorded
// probes, whatever their timestamps. A probe with no replicas is ignored.
func (t *Tracker) Observe(at time.Time, replicas ...ReplicaID) {
	if len(replicas) == 0 {
		return
	}
	cp := make([]ReplicaID, len(replicas))
	copy(cp, replicas)

	t.mu.Lock()
	defer t.mu.Unlock()
	t.probes = append(t.probes, probe{at: at, replicas: cp})
	t.compactLocked()
	t.dirty = true
}

// compactLocked enforces the probe-count window, compacting in place; the
// vacated tail of the backing array is zeroed so the dropped probes' replica
// slices become collectable — a long-lived tracker must not pin its entire
// history through the array tail.
func (t *Tracker) compactLocked() {
	if n := len(t.probes); t.window > 0 && n > t.window {
		t.probes = append(t.probes[:0], t.probes[n-t.window:]...)
		clear(t.probes[t.window:n])
	}
}

// Len returns the number of probes currently in the window.
func (t *Tracker) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.probes)
}

// RatioMap derives the node's current redirection ratio map from the probes
// in the window. The result is freshly allocated and sums to 1 unless the
// tracker is empty (in which case it is empty).
func (t *Tracker) RatioMap() RatioMap {
	return t.vec().ratioMap()
}

// vec returns the compiled form of the current ratio map. The returned
// vector is immutable and shared: callers must not modify it. This is the
// Service query path's representation — between observations it costs one
// mutex acquisition and no allocation.
func (t *Tracker) vec() ratioVec {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.refreshLocked()
	return t.cachedVec
}

// refreshLocked rebuilds the cached compiled vector if a mutation
// invalidated it. Per-replica weights accumulate in a map, in probe order;
// only its compiled form is kept.
func (t *Tracker) refreshLocked() {
	if !t.dirty {
		return
	}
	m := make(RatioMap)
	if len(t.probes) > 0 {
		perProbe := 1 / float64(len(t.probes))
		for _, p := range t.probes {
			w := perProbe / float64(len(p.replicas))
			for _, r := range p.replicas {
				m[r] += w
			}
		}
	}
	t.cachedVec = compileRatioMap(m)
	t.dirty = false
}
