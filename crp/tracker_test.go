package crp

import (
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

func TestTrackerRatioMapMatchesPaperFormulation(t *testing.T) {
	// Node redirected to r1 30% of the time and r2 70% of the time must
	// yield ν = ⟨r1 ⇒ 0.3, r2 ⇒ 0.7⟩.
	tr := NewTracker()
	for i := 0; i < 3; i++ {
		tr.Observe(t0.Add(time.Duration(i)*time.Minute), "r1")
	}
	for i := 3; i < 10; i++ {
		tr.Observe(t0.Add(time.Duration(i)*time.Minute), "r2")
	}
	m := tr.RatioMap()
	if !almostEqual(m["r1"], 0.3, 1e-12) || !almostEqual(m["r2"], 0.7, 1e-12) {
		t.Errorf("ratio map = %v, want r1=0.3 r2=0.7", m)
	}
	if !almostEqual(m.Sum(), 1, 1e-12) {
		t.Errorf("ratios sum to %v, want 1", m.Sum())
	}

	// Each ratio is exactly its probe-order accumulation, and the map is
	// built fresh per call: scribbling on it reaches neither the cached
	// compiled vector nor the next RatioMap.
	want := RatioMap{}
	for i := 0; i < 10; i++ {
		r := ReplicaID("r2")
		if i < 3 {
			r = "r1"
		}
		want[r] += 1 / float64(10)
	}
	m["r1"], m["scribble"] = 9, 9
	if again := tr.RatioMap(); !maps.Equal(again, want) {
		t.Errorf("RatioMap after mutating the previous result = %v, want %v", again, want)
	}
	if v := tr.vec(); !maps.Equal(v.ratioMap(), want) {
		t.Errorf("vec after mutating a returned map = %+v, want %v", v, want)
	}
}

func TestTrackerMultiRecordProbes(t *testing.T) {
	// A probe returning two A records splits its weight between them.
	tr := NewTracker()
	tr.Observe(t0, "r1", "r2")
	tr.Observe(t0.Add(time.Minute), "r1")
	m := tr.RatioMap()
	if !almostEqual(m["r1"], 0.75, 1e-12) || !almostEqual(m["r2"], 0.25, 1e-12) {
		t.Errorf("ratio map = %v, want r1=0.75 r2=0.25", m)
	}
}

func TestTrackerWindowKeepsRecentProbes(t *testing.T) {
	tr := NewTracker(WithWindow(10))
	for i := 0; i < 30; i++ {
		tr.Observe(t0.Add(time.Duration(i)*time.Minute), ReplicaID(fmt.Sprintf("r%d", i)))
	}
	if got := tr.Len(); got != 10 {
		t.Fatalf("Len = %d, want 10", got)
	}
	m := tr.RatioMap()
	if _, stale := m["r19"]; stale {
		t.Error("window retained a probe older than the last 10")
	}
	if _, fresh := m["r29"]; !fresh {
		t.Error("window dropped the most recent probe")
	}
	if _, fresh := m["r20"]; !fresh {
		t.Error("window dropped the 10th most recent probe")
	}
}

func TestTrackerUnboundedWindow(t *testing.T) {
	tr := NewTracker() // "all probes"
	for i := 0; i < 500; i++ {
		tr.Observe(t0.Add(time.Duration(i)*time.Minute), "r1")
	}
	if got := tr.Len(); got != 500 {
		t.Errorf("Len = %d, want 500", got)
	}
}

func TestTrackerIgnoresEmptyProbe(t *testing.T) {
	tr := NewTracker()
	tr.Observe(t0)
	if tr.Len() != 0 {
		t.Error("empty probe recorded")
	}
}

func TestTrackerEmptyRatioMap(t *testing.T) {
	tr := NewTracker()
	if m := tr.RatioMap(); len(m) != 0 {
		t.Errorf("empty tracker map = %v", m)
	}
}

func TestTrackerObserveCopiesReplicaSlice(t *testing.T) {
	tr := NewTracker()
	replicas := []ReplicaID{"r1", "r2"}
	tr.Observe(t0, replicas...)
	replicas[0] = "tampered"
	m := tr.RatioMap()
	if _, ok := m["tampered"]; ok {
		t.Error("tracker aliased the caller's slice")
	}
}

func TestTrackerNegativeOptionsClamped(t *testing.T) {
	tr := NewTracker(WithWindow(-5))
	for i := 0; i < 20; i++ {
		tr.Observe(t0.Add(time.Duration(i)*time.Minute), "r")
	}
	if got := tr.Len(); got != 20 {
		t.Errorf("a negative window should mean unbounded; Len = %d", got)
	}
}

func TestTrackerConcurrentObserve(t *testing.T) {
	tr := NewTracker(WithWindow(100))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Observe(t0.Add(time.Duration(i)*time.Second), ReplicaID(fmt.Sprintf("r%d", w)))
				_ = tr.RatioMap()
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Len(); got != 100 {
		t.Errorf("Len = %d, want 100", got)
	}
	if sum := tr.RatioMap().Sum(); !almostEqual(sum, 1, 1e-9) {
		t.Errorf("ratio sum = %v, want 1", sum)
	}
}

func TestTrackerWindowTenApproximatesRecentBehaviour(t *testing.T) {
	// After a redirection regime change, a 10-probe window reflects the new
	// regime while an unbounded window is still dominated by stale history —
	// the effect behind Fig. 9's "all probes can hurt" observation.
	windowed := NewTracker(WithWindow(10))
	unbounded := NewTracker()
	at := t0
	for i := 0; i < 90; i++ {
		windowed.Observe(at, "old")
		unbounded.Observe(at, "old")
		at = at.Add(10 * time.Minute)
	}
	for i := 0; i < 10; i++ {
		windowed.Observe(at, "new")
		unbounded.Observe(at, "new")
		at = at.Add(10 * time.Minute)
	}
	if got := windowed.RatioMap()["new"]; !almostEqual(got, 1, 1e-12) {
		t.Errorf("windowed new ratio = %v, want 1", got)
	}
	if got := unbounded.RatioMap()["new"]; got > 0.2 {
		t.Errorf("unbounded new ratio = %v, want 0.1", got)
	}
}

// timeMinutes converts a probe index to a duration offset for tests.
func timeMinutes(i int) time.Duration {
	return time.Duration(i) * time.Minute
}

// leakedTailEntries counts non-zero probe entries lingering in the backing
// array beyond the tracker's live window — dropped history that compaction
// failed to release for the garbage collector.
func leakedTailEntries(tr *Tracker) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, p := range tr.probes[len(tr.probes):cap(tr.probes)] {
		if p.replicas != nil {
			n++
		}
	}
	return n
}

// Regression: the in-place window compaction used to leave every dropped
// probe's replica slice alive in the backing array tail, so a long-lived
// tracker pinned its entire history. The tail must be zeroed.
func TestTrackerCompactReleasesDroppedProbes(t *testing.T) {
	tr := NewTracker(WithWindow(4))
	for i := 0; i < 500; i++ {
		tr.Observe(t0.Add(timeMinutes(i)), "r1", "r2")
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("window holds %d probes, want 4", got)
	}
	if leaked := leakedTailEntries(tr); leaked != 0 {
		t.Errorf("%d dropped probes still referenced in the backing array tail", leaked)
	}
	m := tr.RatioMap()
	if !almostEqual(m.Sum(), 1, 1e-9) {
		t.Errorf("ratio map sum = %v after compaction, want 1", m.Sum())
	}
}
