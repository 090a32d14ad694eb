package crp

import (
	"fmt"
	"maps"
	"runtime"
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

// leakedTailEntries counts non-empty replica IDs lingering in the ids
// backing array beyond the tracker's live window — dropped history that the
// window shift failed to release for the garbage collector.
func leakedTailEntries(tr *Tracker) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, r := range tr.ids[len(tr.ids):cap(tr.ids)] {
		if r != "" {
			n++
		}
	}
	return n
}

// Regression: the in-place window compaction used to leave every dropped
// probe's replica slice alive in the backing array tail, so a long-lived
// tracker pinned its entire history. The window's last probes are narrower
// than the ones that sized its ids, so the ids array has a vacated tail, and
// that tail must be zeroed.
func TestTrackerCompactReleasesDroppedProbes(t *testing.T) {
	tr := NewTracker(WithWindow(4))
	for i := 0; i < 500; i++ {
		if i < 496 {
			tr.Observe(t0.Add(timeMinutes(i)), "r1", "r2")
		} else {
			tr.Observe(t0.Add(timeMinutes(i)), "r3")
		}
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("window holds %d probes, want 4", got)
	}
	if leaked := leakedTailEntries(tr); leaked != 0 {
		t.Errorf("%d dropped replica IDs still referenced in the backing array tail", leaked)
	}
	m := tr.RatioMap()
	if !almostEqual(m.Sum(), 1, 1e-9) {
		t.Errorf("ratio map sum = %v after compaction, want 1", m.Sum())
	}
}

// TestTrackerWindowAllocBudget measures the live bytes per windowed tracker
// after a garbage collection, over enough trackers that a one-off runtime
// allocation during the loop moves the per-tracker figure by tens of bytes
// at most. Budgets include the compiled vector.
//   - A full 10-probe window whose probes each name 2 of 3 replicas: 16 B
//     heads and one flat ID array measure 606-661 B; a growing slice of
//     probes that each owned their replica slice measured about 1,380 B.
//   - One 2-replica probe at window 4096 holds what that probe needs, not a
//     window's worth of heads (64 KB).
func TestTrackerWindowAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	replicas := []ReplicaID{"r1", "r2", "r3"}
	for _, c := range []struct {
		name           string
		window, probes int
		budget         float64
	}{
		{"full window of 10", 10, 12, 700},
		{"one probe at window 4096", 4096, 1, 300},
	} {
		t.Run(c.name, func(t *testing.T) {
			const n = 2000
			trackers := make([]*Tracker, n)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := range trackers {
				tr := NewTracker(WithWindow(c.window))
				for j := 0; j < c.probes; j++ {
					k := (i + j) % 3
					tr.Observe(t0.Add(timeMinutes(j)), replicas[k], replicas[(k+1)%3])
				}
				tr.vec()
				trackers[i] = tr
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			perTracker := float64(after.HeapAlloc-before.HeapAlloc) / n
			runtime.KeepAlive(trackers)
			t.Logf("%.1f live bytes per tracker", perTracker)
			if perTracker > c.budget {
				t.Fatalf("a tracker holds %.1f live bytes, budget %v", perTracker, c.budget)
			}
		})
	}
}

// A window holds the IDs its probes name, whatever their widths: a first
// probe of 10,000 replicas reserves no room for nine more like it, the room
// it took is given back once it leaves the window, and a delta's replay
// sizes the window exactly.
func TestTrackerWindowSizesToItsProbes(t *testing.T) {
	wide := make([]ReplicaID, 10_000)
	for i := range wide {
		wide[i] = ReplicaID(fmt.Sprint("w", i))
	}
	tr := NewTracker(WithWindow(10))
	tr.Observe(t0, wide...)
	if c := cap(tr.ids); c > 11_000 {
		t.Fatalf("one 10,000-replica probe reserved %d IDs", c)
	}
	if c := cap(tr.probes); c > 1 {
		t.Fatalf("one probe reserved %d heads", c)
	}
	for i := 1; i <= 10; i++ {
		tr.Observe(t0.Add(timeMinutes(i)), "r1", "r2")
	}
	if l, c := len(tr.ids), cap(tr.ids); l != 20 || c != 20 {
		t.Fatalf("after the wide probe left: %d IDs in room for %d, want 20 in 20", l, c)
	}
	if c := cap(tr.probes); c != 10 {
		t.Fatalf("a full window of 10 keeps room for %d heads", c)
	}

	peer := NewService(WithWindow(10))
	probes := append(tr.Probes(), Probe{At: t0}, Probe{At: t0.Add(time.Hour), Replicas: wide[:3]})
	applyOK(t, peer, NodeDelta{NodeMeta: NodeMeta{Node: "n", Origin: "o", Version: 1}, Probes: probes}, true)
	loaded, _ := peer.store.get("n")
	if l, c := len(loaded.probes), cap(loaded.probes); l != 10 || c != 10 {
		t.Fatalf("replayed window: %d heads in room for %d, want 10 in 10", l, c)
	}
	if l, c := len(loaded.ids), cap(loaded.ids); l != 21 || c != 21 {
		t.Fatalf("replayed window: %d IDs in room for %d, want 21 in 21", l, c)
	}
}
