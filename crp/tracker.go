package crp

import (
	"sync"
	"time"
)

// A probe is the head of one redirection observation: a single DNS lookup of
// a CDN-accelerated name, which may return several replica servers (Akamai
// returns two A records). The instant is kept as Unix seconds and
// nanoseconds, which cover every year binwire.Dec.Time accepts (UnixNano
// stops at 2262); n counts the probe's replicas in the tracker's ids.
type probe struct {
	sec  int64
	nsec int32
	n    int32
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
	ids    []ReplicaID // every probe's replicas back to back, oldest first

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
	t.mu.Lock()
	defer t.mu.Unlock()
	full := t.window > 0 && len(t.probes) == t.window
	if full {
		// Shift out the oldest probe and its replicas, and clear the vacated
		// id tail so a dropped replica string is not kept alive by it.
		n := int(t.probes[0].n)
		t.probes = t.probes[:copy(t.probes, t.probes[1:])]
		k := copy(t.ids, t.ids[n:])
		clear(t.ids[k:])
		t.ids = t.ids[:k]
	}
	t.probes = append(t.probes, probe{sec: at.Unix(), nsec: int32(at.Nanosecond()), n: int32(len(replicas))})
	t.ids = append(t.ids, replicas...)
	switch {
	case !full && len(t.probes) == t.window:
		// The window has just filled, and from here on it shifts in place:
		// give back the room that growing to it reserved.
		t.probes = exact(t.probes)
		t.ids = exact(t.ids)
	case full && cap(t.ids) > 4*len(t.ids):
		// A wide probe has left the window: give back the room it needed.
		// Only past 4x, so probes of mixed widths do not reallocate back
		// and forth.
		t.ids = exact(t.ids)
	}
	t.dirty = true
}

// load fills an empty tracker with the window that observing probes in
// order would leave, its heads and ids each allocated once at their exact
// size: a delta's replay.
func (t *Tracker) load(probes []Probe) {
	first, kept, ids := len(probes), 0, 0
	for first > 0 && (t.window == 0 || kept < t.window) {
		first--
		if n := len(probes[first].Replicas); n > 0 {
			kept++
			ids += n
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.probes = make([]probe, 0, kept)
	t.ids = make([]ReplicaID, 0, ids)
	for _, p := range probes[first:] {
		if len(p.Replicas) > 0 {
			t.probes = append(t.probes, probe{sec: p.At.Unix(), nsec: int32(p.At.Nanosecond()), n: int32(len(p.Replicas))})
			t.ids = append(t.ids, p.Replicas...)
		}
	}
	t.dirty = true
}

// exact returns s in a backing array of exactly its length.
func exact[S ~[]E, E any](s S) S {
	if cap(s) == len(s) {
		return s
	}
	return append(make(S, 0, len(s)), s...)
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
		ids := t.ids
		for _, p := range t.probes {
			w := perProbe / float64(p.n)
			for _, r := range ids[:p.n] {
				m[r] += w
			}
			ids = ids[p.n:]
		}
	}
	t.cachedVec = compileRatioMap(m)
	t.dirty = false
}
