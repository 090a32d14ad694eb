package drift

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/crp"
	"repro/internal/obs"
)

var t0 = time.Date(2006, 11, 12, 0, 0, 0, 0, time.UTC)

func mkFrame(idx int, observes uint64, m crp.RatioMap) crp.DriftFrame {
	return crp.DriftFrame{
		At:       t0.Add(time.Duration(idx) * time.Minute),
		Observes: observes,
		Streams:  []crp.FrameStream{{NS: "cdnA", Support: 10, Map: m}},
	}
}

// jittered returns base with multiplicative noise — the sampling jitter a
// stationary population aggregate shows frame to frame. Keys are walked in
// sorted order so the rng draws land on the same keys every run (map
// iteration order would otherwise leak into the sequence).
func jittered(base map[string]float64, rng *rand.Rand, noise float64) crp.RatioMap {
	ids := make([]string, 0, len(base))
	for id := range base {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make(crp.RatioMap, len(base))
	sum := 0.0
	for _, id := range ids {
		v := base[id] * (1 + noise*(2*rng.Float64()-1))
		out[crp.ReplicaID(id)] = v
		sum += v
	}
	for id := range out {
		out[id] /= sum
	}
	return out
}

func dist(ids ...string) map[string]float64 {
	m := make(map[string]float64, len(ids))
	for i, id := range ids {
		m[id] = 1 / float64(i+2) // uneven but overlapping masses
	}
	return m
}

// stepFrames builds a run that is stationary around distribution A, then
// abruptly and persistently switches to distribution B at frame switchAt.
func stepFrames(n, switchAt int, seed int64) []crp.DriftFrame {
	rng := rand.New(rand.NewSource(seed))
	a := dist("r0", "r1", "r2", "r3", "r4")
	b := dist("r5", "r6", "r7", "r8", "r9")
	frames := make([]crp.DriftFrame, 0, n)
	for i := 0; i < n; i++ {
		base := a
		if i >= switchAt {
			base = b
		}
		frames = append(frames, mkFrame(i, uint64(10*(i+1)), jittered(base, rng, 0.05)))
	}
	return frames
}

func TestDetectorFiresOnceOnPersistentShift(t *testing.T) {
	det, err := New(DefaultSensitivity, WithRegistry(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	for _, f := range stepFrames(60, 30, 1) {
		events = append(events, det.ObserveFrame(f)...)
	}
	if len(events) != 1 {
		t.Fatalf("want exactly one event for one persistent shift (hysteresis), got %d: %+v", len(events), events)
	}
	ev := events[0]
	if ev.Kind != KindRemap || ev.NS != "cdnA" {
		t.Fatalf("unexpected event %+v", ev)
	}
	if ev.Frame < 31 || ev.Frame > 33 {
		t.Fatalf("detection frame %d, want within a couple frames of the shift at 31", ev.Frame)
	}
	st := det.Status()
	if st.Events != 1 || st.Frames != 60 {
		t.Fatalf("status events/frames = %d/%d", st.Events, st.Frames)
	}
	// Long after the shift the baseline has absorbed the new regime and
	// the stream has re-armed.
	if st.Streams[0].Alarmed {
		t.Fatalf("stream still alarmed after baseline convergence: %+v", st.Streams[0])
	}
}

// TestDetectorCommonModeAndLoneNamespace pins both sides of the common-mode
// rejection (effectiveDrift) with one step shift. Fed to cdnA and cdnB of
// one group at once it reads as client-side churn: no remap. Fed to a lone
// cdnA stream there is no peer to subtract, so the same shift is one remap
// — the single-namespace blind spot in DESIGN.md "Decisions".
func TestDetectorCommonModeAndLoneNamespace(t *testing.T) {
	remaps := func(frames []crp.DriftFrame) int {
		det, err := New(DefaultSensitivity, WithRegistry(obs.NewRegistry()))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, f := range frames {
			for _, ev := range det.ObserveFrame(f) {
				if ev.Kind == KindRemap {
					n++
				}
			}
		}
		return n
	}
	lone := stepFrames(60, 30, 1)
	both := make([]crp.DriftFrame, len(lone))
	for i, f := range lone {
		peer := f.Streams[0]
		peer.NS = "cdnB"
		f.Streams = []crp.FrameStream{f.Streams[0], peer}
		both[i] = f
	}
	if n := remaps(both); n != 0 {
		t.Errorf("common-mode shift on cdnA and cdnB: %d remaps, want 0", n)
	}
	if n := remaps(lone); n != 1 {
		t.Errorf("shift on a lone cdnA stream: %d remaps, want 1", n)
	}
}

func TestDetectorRefiresAfterRearm(t *testing.T) {
	det, err := New(DefaultSensitivity, WithRegistry(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	a := dist("r0", "r1", "r2", "r3", "r4")
	b := dist("r5", "r6", "r7", "r8", "r9")
	var events []Event
	for i := 0; i < 90; i++ {
		base := a
		if i >= 30 && i < 60 {
			base = b
		}
		events = append(events, det.ObserveFrame(mkFrame(i, uint64(10*(i+1)), jittered(base, rng, 0.05)))...)
	}
	// Two regime changes (A→B at 30, B→A at 60) — exactly two remaps.
	if len(events) != 2 {
		t.Fatalf("want two events for two shifts, got %d: %+v", len(events), events)
	}
}

func TestDetectorQuietUnderStationaryJitter(t *testing.T) {
	// LDNS churn re-homes clients inside the same population, so the
	// aggregate stream stays stationary up to sampling jitter. The
	// detector must stay silent on such a stream even with generous noise.
	det, err := New(DefaultSensitivity, WithRegistry(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	base := dist("r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7")
	for i := 0; i < 200; i++ {
		if evs := det.ObserveFrame(mkFrame(i, uint64(10*(i+1)), jittered(base, rng, 0.10))); len(evs) > 0 {
			t.Fatalf("event fired on stationary jitter at frame %d: %+v", i, evs)
		}
	}
}

func TestDetectorFlagsStaleStream(t *testing.T) {
	det, err := New(DefaultSensitivity, WithRegistry(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	base := dist("r0", "r1", "r2", "r3")
	var events []Event
	frozen := jittered(base, rng, 0)
	for i := 0; i < 40; i++ {
		var m crp.RatioMap
		if i < 20 {
			m = jittered(base, rng, 0.05)
		} else {
			m = frozen // byte-identical map while observes keep advancing
		}
		events = append(events, det.ObserveFrame(mkFrame(i, uint64(10*(i+1)), m))...)
	}
	var stales []Event
	for _, e := range events {
		if e.Kind == KindStale {
			stales = append(stales, e)
		}
	}
	if len(stales) != 1 {
		t.Fatalf("want exactly one stale event, got %+v", events)
	}
	if got := stales[0].Frame; got != 27 {
		// Freeze starts at frame 21 (first repeat of frame 20's map);
		// staleFrames=6 identical repeats fire at frame 27.
		t.Fatalf("stale fired at frame %d, want 27", got)
	}
}

func TestDetectorStaleNeedsIngest(t *testing.T) {
	// The same frozen map without any new probes is "no traffic", not a
	// stale mapping: no alarm.
	det, err := New(DefaultSensitivity, WithRegistry(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	frozen := jittered(dist("r0", "r1", "r2"), rng, 0)
	for i := 0; i < 40; i++ {
		if evs := det.ObserveFrame(mkFrame(i, 100, frozen)); len(evs) > 0 {
			t.Fatalf("stale fired without ingest at frame %d: %+v", i, evs)
		}
	}
}

func TestDetectorDeterministicRerun(t *testing.T) {
	frames := stepFrames(80, 40, 6)
	run := func() ([]byte, []byte) {
		det, err := New(DefaultSensitivity, WithRegistry(obs.NewRegistry()))
		if err != nil {
			t.Fatal(err)
		}
		var events []Event
		for _, f := range frames {
			events = append(events, det.ObserveFrame(f)...)
		}
		evb, err := json.Marshal(events)
		if err != nil {
			t.Fatal(err)
		}
		stb, err := json.Marshal(det.Status())
		if err != nil {
			t.Fatal(err)
		}
		return evb, stb
	}
	ev1, st1 := run()
	ev2, st2 := run()
	if string(ev1) != string(ev2) {
		t.Fatalf("event logs differ across same-input reruns:\n%s\n%s", ev1, ev2)
	}
	if string(st1) != string(st2) {
		t.Fatalf("status reports differ across same-input reruns:\n%s\n%s", st1, st2)
	}
}

func TestDetectorSkipsThinStreams(t *testing.T) {
	det, err := New(DefaultSensitivity, WithRegistry(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	f := crp.DriftFrame{
		At:       t0,
		Observes: 10,
		Streams:  []crp.FrameStream{{NS: "cdnA", Support: 1, Map: crp.RatioMap{"r0": 1}}},
	}
	for i := 0; i < 30; i++ {
		f.Observes += 10
		if evs := det.ObserveFrame(f); len(evs) > 0 {
			t.Fatalf("thin stream fired: %+v", evs)
		}
	}
	if st := det.Status(); len(st.Streams) != 0 {
		t.Fatalf("thin stream tracked: %+v", st.Streams)
	}
}

func TestMonitorTickAgainstLiveService(t *testing.T) {
	svc := crp.NewService(crp.WithWindow(8))
	clock := t0
	mon, err := NewMonitor(svc, DefaultSensitivity,
		WithRegistry(obs.NewRegistry()),
		WithClock(func() time.Time { return clock }))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		for n := 0; n < 4; n++ {
			node := crp.NodeID(fmt.Sprintf("n%d", n))
			svc.Observe(node, clock, crp.Qualify("cdnA", crp.ReplicaID(fmt.Sprintf("r%d", (i+n)%3))))
		}
		clock = clock.Add(time.Minute)
		mon.Tick()
	}
	st := mon.Status()
	if st.Frames != 10 {
		t.Fatalf("frames = %d, want 10", st.Frames)
	}
	if len(st.Streams) != 1 || st.Streams[0].NS != "cdnA" {
		t.Fatalf("streams = %+v", st.Streams)
	}
}

// TestNewRejectsSensitivityOutOfRange pins the (0, 100] bound, NaN
// included: a NaN sensitivity makes both trip thresholds NaN, and the
// detector then raises remap alarms on a constant stream.
func TestNewRejectsSensitivityOutOfRange(t *testing.T) {
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 101} {
		if _, err := New(s, WithRegistry(obs.NewRegistry())); err == nil {
			t.Errorf("New(%v) accepted an out-of-range sensitivity", s)
		}
	}
	for _, s := range []float64{0.5, DefaultSensitivity, 2, 100} {
		if _, err := New(s, WithRegistry(obs.NewRegistry())); err != nil {
			t.Errorf("New(%v): %v", s, err)
		}
	}
}
