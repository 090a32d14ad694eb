// Package drift is the CDN-change detector: an unsupervised monitor over
// the stream of compiled ratio-map snapshots (crp.DriftFrame) that flags
// CDN remapping events — mass redirection shifts, replica-set churn, and
// frozen maps going stale — while staying quiet under client-side LDNS
// churn.
//
// Each (namespace, group) stream keeps an exponentially-decayed baseline
// centroid and a short window of recent frames. Two drift statistics are
// computed per frame against the baseline: the cosine distance of the
// windowed recent centroid, and the Jaccard drift of the top-mass replica
// sets. Client-side LDNS churn is rejected by common-mode subtraction:
// churn re-homes clients and therefore moves every namespace's stream of
// the same population together, while a CDN event moves only the faulted
// namespace, so a stream's effective drift is capped at twice the part of
// its raw drift that its quietest peer namespace (same group) cannot
// explain. Either statistic crossing its threshold (scaled by the
// configured sensitivity) raises a remap alarm; a near-identical map
// persisting while the service keeps accepting probes raises a stale alarm.
// Hysteresis makes one underlying event fire exactly once: an alarmed
// stream re-arms only after the statistics stay calm for a fixed
// number of frames, and the baseline keeps decaying toward the new regime
// so a persistent shift is absorbed rather than re-reported.
//
// The detector is fully deterministic: it draws no randomness and iterates
// every structure in sorted order, so the same frame sequence yields the
// byte-identical event log and report.
package drift

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/crp"
)

// DefaultSensitivity is the trip-threshold scale crpd -drift and the
// scenario runner use; the drift sweep also runs 0.5 and 2.
const DefaultSensitivity = 1.0

// Detector constants. Each was tuned once against the drift sweep
// (BENCH_drift.json) and no caller has needed another value since.
const (
	// window is how many recent frames the drift centroid averages. Small
	// windows react faster and keep event peaks sharp; large windows trade
	// latency for noise suppression.
	window = 2
	// baselineAlpha is the EWMA weight of the newest frame in the decayed
	// baseline centroid.
	baselineAlpha = 0.25
	// centroidThreshold is the base cosine-distance trip point between the
	// recent centroid and the baseline, applied to the common-mode-rejected
	// effective distance: 0.018 is roughly twice the sampling noise floor
	// of a population aggregate and half a mapping flap's shift.
	centroidThreshold = 0.018
	// jaccardThreshold is the base trip point for 1 - Jaccard(topRecent,
	// topBaseline) over the top-mass replica sets.
	jaccardThreshold = 0.5
	// topMass is the cumulative-mass quantile defining a stream's top
	// replica set for the Jaccard statistic.
	topMass = 0.5
	// warmupFrames is how many frames a stream must deliver before its
	// alarms arm; the decayed baseline is still converging early on and
	// reads as drift. The baseline accumulates during warmup.
	warmupFrames = 8
	// calmFrames is how many consecutive calm frames (score below
	// rearmFraction of the trip point) an alarmed stream needs before it
	// can fire again.
	calmFrames = 3
	// rearmFraction: an alarmed stream counts a frame as calm only when its
	// score drops below this fraction of the trip point, so the alarm
	// doesn't chatter around the threshold.
	rearmFraction = 0.6
	// staleFrames is how many consecutive near-identical frames (see
	// staleEpsilon), while the service keeps accepting probes, flag a
	// stream's map as stale.
	staleFrames = 6
	// staleEpsilon is the frame-to-frame cosine distance at or below which
	// two consecutive compiled maps count as "the same" for stale
	// detection. Natural epoch rotation keeps consecutive frames well
	// above it; a frozen mapping collapses an order of magnitude below.
	staleEpsilon = 2e-4
	// minSupport is the minimum stream support (tracked nodes, or absorbed
	// probes for aggregation groups) for a frame's stream to be considered.
	minSupport = 2
)

// EventKind labels a detected CDN mapping event. The values match the
// faults package's ground-truth event kinds so experiment scorers can join
// detections to the truth schedule directly.
type EventKind string

const (
	// KindRemap is an abrupt mass-redirection shift: the recent centroid
	// or the top-mass replica set moved away from the decayed baseline.
	KindRemap EventKind = "remap"
	// KindStale is a frozen map: the stream's ratio map stayed within
	// staleEpsilon of itself across staleFrames frames while the service
	// kept accepting probes.
	KindStale EventKind = "stale"
)

// Event is one fired alarm. At is the timestamp of the frame that fired it
// and Frame its index in the detector's frame sequence.
type Event struct {
	Kind  EventKind `json:"kind"`
	NS    string    `json:"ns"`
	Group string    `json:"group,omitempty"`
	At    time.Time `json:"at"`
	Frame int       `json:"frame"`
	// Score is the threshold-normalized drift score at firing time (>= 1
	// for remap events; 0 for stale events, which are counted, not
	// scored).
	Score float64 `json:"score"`
	// CentroidDist and JaccardDrift are the effective (common-mode
	// rejected) statistics behind Score.
	CentroidDist float64 `json:"centroidDist"`
	JaccardDrift float64 `json:"jaccardDrift"`
	// StaleRun is the identical-frame run length for stale events.
	StaleRun int `json:"staleRun,omitempty"`
}

// StreamStatus is the point-in-time state of one monitored stream.
type StreamStatus struct {
	NS           string  `json:"ns"`
	Group        string  `json:"group,omitempty"`
	Frames       int     `json:"frames"`
	Support      int     `json:"support"`
	Alarmed      bool    `json:"alarmed"`
	Score        float64 `json:"score"`
	CentroidDist float64 `json:"centroidDist"`
	JaccardDrift float64 `json:"jaccardDrift"`
	StaleRun     int     `json:"staleRun"`
	Events       int     `json:"events"`
}

// Status is the detector summary served by the crpd drift-status op.
// Streams are sorted by (NS, Group) and Recent holds the last few events,
// oldest first.
type Status struct {
	Sensitivity float64        `json:"sensitivity"`
	Frames      int            `json:"frames"`
	Events      int            `json:"events"`
	Streams     []StreamStatus `json:"streams,omitempty"`
	Recent      []Event        `json:"recent,omitempty"`
}

// maxRecentEvents bounds Status.Recent.
const maxRecentEvents = 32

// svec is a ratio map compiled to sorted parallel slices — every detector
// statistic runs on svecs via merge joins, so no map iteration order ever
// reaches a float.
type svec struct {
	ids  []string
	vals []float64
}

func fromMap(m crp.RatioMap) svec {
	v := svec{
		ids:  make([]string, 0, len(m)),
		vals: make([]float64, 0, len(m)),
	}
	for id := range m {
		v.ids = append(v.ids, string(id))
	}
	sort.Strings(v.ids)
	for _, id := range v.ids {
		v.vals = append(v.vals, m[crp.ReplicaID(id)])
	}
	return v
}

// cosineDist is 1 - cosine(a, b); 1 when either side is empty.
func cosineDist(a, b svec) float64 {
	dot, na, nb := 0.0, 0.0, 0.0
	i, j := 0, 0
	for i < len(a.ids) && j < len(b.ids) {
		switch {
		case a.ids[i] == b.ids[j]:
			dot += a.vals[i] * b.vals[j]
			i++
			j++
		case a.ids[i] < b.ids[j]:
			i++
		default:
			j++
		}
	}
	for _, v := range a.vals {
		na += v * v
	}
	for _, v := range b.vals {
		nb += v * v
	}
	if na == 0 || nb == 0 {
		return 1
	}
	d := 1 - dot/math.Sqrt(na*nb)
	if d < 0 {
		return 0
	}
	return d
}

// ewma merges cur into base with weight alpha, dropping entries whose
// weight decays below noise.
func ewma(base, cur svec, alpha float64) svec {
	const floor = 1e-12
	out := svec{
		ids:  make([]string, 0, len(base.ids)+len(cur.ids)),
		vals: make([]float64, 0, len(base.ids)+len(cur.ids)),
	}
	push := func(id string, v float64) {
		if v > floor {
			out.ids = append(out.ids, id)
			out.vals = append(out.vals, v)
		}
	}
	i, j := 0, 0
	for i < len(base.ids) || j < len(cur.ids) {
		switch {
		case j >= len(cur.ids) || (i < len(base.ids) && base.ids[i] < cur.ids[j]):
			push(base.ids[i], (1-alpha)*base.vals[i])
			i++
		case i >= len(base.ids) || cur.ids[j] < base.ids[i]:
			push(cur.ids[j], alpha*cur.vals[j])
			j++
		default:
			push(base.ids[i], (1-alpha)*base.vals[i]+alpha*cur.vals[j])
			i++
			j++
		}
	}
	return out
}

// topSet returns the smallest replica set covering at least mass of v's
// weight, heaviest first (ties broken by id), returned sorted by id.
func topSet(v svec, mass float64) []string {
	idx := make([]int, len(v.ids))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if v.vals[idx[a]] != v.vals[idx[b]] {
			return v.vals[idx[a]] > v.vals[idx[b]]
		}
		return v.ids[idx[a]] < v.ids[idx[b]]
	})
	total := 0.0
	for _, w := range v.vals {
		total += w
	}
	var out []string
	acc := 0.0
	for _, i := range idx {
		if acc >= mass*total {
			break
		}
		out = append(out, v.ids[i])
		acc += v.vals[i]
	}
	sort.Strings(out)
	return out
}

// jaccardDrift is 1 - |a∩b|/|a∪b| over two sorted string sets; 0 when both
// are empty.
func jaccardDrift(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter, union := 0, 0
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			i++
		case i >= len(a) || b[j] < a[i]:
			j++
		default:
			inter++
			i++
			j++
		}
		union++
	}
	return 1 - float64(inter)/float64(union)
}

// streamState is the per-(ns, group) detector state.
type streamState struct {
	ns, group string
	frames    int
	support   int
	ring      []svec // last window frames, oldest first
	base      svec
	haveBase  bool
	alarmed   bool
	calm      int
	staleRun  int
	staleOn   bool // stale alarm latched for the current frozen run
	lastVec   svec
	haveLast  bool
	lastObs   uint64
	score     float64
	cd, jd    float64
	events    int
}

// Detector consumes DriftFrames and fires Events. It is not safe for
// concurrent use; Monitor wraps it with a lock and a clock for live
// daemons.
type Detector struct {
	sensitivity float64
	effC        float64 // centroidThreshold / sensitivity
	effJ        float64 // jaccardThreshold / sensitivity
	streams     map[string]*streamState
	order       []string // sorted stream keys, maintained on insert
	frames      int
	events      int
	recent      []Event
	m           metrics
}

// New builds a detector. sensitivity scales the trip thresholds: the
// effective centroid and Jaccard thresholds are the base ones divided by
// it, so 2 is twice as eager and 0.5 twice as tolerant. It must lie in
// (0, 100].
func New(sensitivity float64, opts ...Option) (*Detector, error) {
	// Written so that NaN fails it: every comparison with NaN is false.
	if !(sensitivity > 0 && sensitivity <= 100) {
		return nil, fmt.Errorf("drift: sensitivity %v out of range (0, 100]", sensitivity)
	}
	d := &Detector{
		sensitivity: sensitivity,
		effC:        centroidThreshold / sensitivity,
		effJ:        jaccardThreshold / sensitivity,
		streams:     make(map[string]*streamState),
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	d.m = newMetrics(o.registry)
	return d, nil
}

// measuredStream carries one stream's raw per-frame statistics between the
// ingest pass and the alarm pass.
type measuredStream struct {
	ss     *streamState
	cd, jd float64
}

// ObserveFrame feeds one snapshot frame through every stream's statistics
// and returns the events fired by this frame: stale events in stream
// order, then remap events in stream order. Feeding the same frame
// sequence to a fresh detector returns the byte-identical event sequence.
//
// Remap alarms run in two passes. The first pass updates each stream's
// window, baseline, and staleness and records the raw centroid/Jaccard
// drift. The second pass rejects common-mode motion: client-side LDNS
// churn re-homes clients and therefore moves every namespace observed by
// the same population (group) together, while a CDN event moves only the
// faulted namespace. A stream's effective drift is min(raw, 2*(raw -
// quietest peer's raw)) — it must be large in absolute terms AND at least
// half of it must be unexplained by whatever its calmest peer namespace
// saw. Streams with no peer namespace in their group fall back to the raw
// statistic (a single-CDN deployment cannot separate churn from remaps).
func (d *Detector) ObserveFrame(f crp.DriftFrame) []Event {
	d.frames++
	d.m.frames.Inc()
	var fired []Event
	var ms []measuredStream
	for i := range f.Streams {
		st := &f.Streams[i]
		if st.Support < minSupport || len(st.Map) == 0 {
			continue
		}
		key := st.NS + "\x00" + st.Group
		ss := d.streams[key]
		if ss == nil {
			ss = &streamState{ns: st.NS, group: st.Group}
			d.streams[key] = ss
			d.order = append(d.order, key)
			sort.Strings(d.order)
			d.m.streams.Set(int64(len(d.streams)))
		}
		evs, cd, jd, measured := d.ingest(ss, st, f)
		fired = append(fired, evs...)
		if measured {
			ms = append(ms, measuredStream{ss: ss, cd: cd, jd: jd})
		}
	}
	for i := range ms {
		m := &ms[i]
		cd, jd := m.cd, m.jd
		minCd, minJd, havePeer := 0.0, 0.0, false
		for j := range ms {
			p := &ms[j]
			if p.ss.group != m.ss.group || p.ss.ns == m.ss.ns {
				continue
			}
			if !havePeer || p.cd < minCd {
				minCd = p.cd
			}
			if !havePeer || p.jd < minJd {
				minJd = p.jd
			}
			havePeer = true
		}
		if havePeer {
			cd = effectiveDrift(cd, minCd)
			jd = effectiveDrift(jd, minJd)
		}
		fired = append(fired, d.alarm(m.ss, cd, jd, f)...)
	}
	if n := len(fired); n > 0 {
		d.events += n
		d.m.events.Add(uint64(n))
		d.recent = append(d.recent, fired...)
		if len(d.recent) > maxRecentEvents {
			d.recent = d.recent[len(d.recent)-maxRecentEvents:]
		}
	}
	d.m.alarmed.Set(d.alarmedCount())
	return fired
}

// effectiveDrift caps a raw drift statistic at twice its differential over
// the quietest peer namespace: common-mode motion cancels, one-sided
// motion passes through.
func effectiveDrift(raw, peerMin float64) float64 {
	diff := raw - peerMin
	if diff < 0 {
		diff = 0
	}
	if 2*diff < raw {
		return 2 * diff
	}
	return raw
}

// ingest runs the per-stream pass: staleness, window and baseline updates,
// and the raw drift statistics. measured reports whether the stream is out
// of warmup and produced statistics for the alarm pass.
func (d *Detector) ingest(ss *streamState, st *crp.FrameStream, f crp.DriftFrame) (out []Event, cd, jd float64, measured bool) {
	ss.frames++
	ss.support = st.Support
	cur := fromMap(st.Map)

	// Staleness: consecutive compiled maps within staleEpsilon of each
	// other while the service keeps accepting probes. Natural epoch
	// rotation keeps consecutive frames well above the epsilon; a frozen
	// mapping collapses orders of magnitude below it.
	if ss.haveLast && f.Observes > ss.lastObs && cosineDist(cur, ss.lastVec) <= staleEpsilon {
		ss.staleRun++
	} else {
		ss.staleRun = 0
		ss.staleOn = false
	}
	ss.lastVec, ss.haveLast, ss.lastObs = cur, true, f.Observes
	if ss.staleRun >= staleFrames && !ss.staleOn && ss.frames > warmupFrames {
		ss.staleOn = true
		ss.events++
		d.m.stales.Inc()
		out = append(out, Event{
			Kind: KindStale, NS: ss.ns, Group: ss.group,
			At: f.At, Frame: d.frames, StaleRun: ss.staleRun,
		})
	}

	// Recent-window centroid vs the decayed baseline.
	ss.ring = append(ss.ring, cur)
	if len(ss.ring) > window {
		ss.ring = ss.ring[1:]
	}
	if !ss.haveBase {
		ss.base, ss.haveBase = cur, true
		return out, 0, 0, false
	}
	if ss.frames > warmupFrames {
		recent := centroid(ss.ring)
		cd = cosineDist(recent, ss.base)
		jd = jaccardDrift(topSet(recent, topMass), topSet(ss.base, topMass))
		measured = true
	}
	// The baseline always decays toward the current regime, alarmed or
	// not: a persistent shift is absorbed, the score falls, and the stream
	// re-arms for the next event.
	ss.base = ewma(ss.base, cur, baselineAlpha)
	return out, cd, jd, measured
}

// alarm scores one stream's effective drift and applies the hysteresis.
func (d *Detector) alarm(ss *streamState, cd, jd float64, f crp.DriftFrame) []Event {
	score := cd / d.effC
	if s := jd / d.effJ; s > score {
		score = s
	}
	ss.score, ss.cd, ss.jd = score, cd, jd
	if ss.alarmed {
		if score < rearmFraction {
			ss.calm++
			if ss.calm >= calmFrames {
				ss.alarmed, ss.calm = false, 0
			}
		} else {
			ss.calm = 0
		}
		return nil
	}
	if score < 1 {
		return nil
	}
	ss.alarmed, ss.calm = true, 0
	ss.events++
	d.m.remaps.Inc()
	return []Event{{
		Kind: KindRemap, NS: ss.ns, Group: ss.group,
		At: f.At, Frame: d.frames,
		Score: score, CentroidDist: cd, JaccardDrift: jd,
	}}
}

// centroid averages a ring of normalized svecs (merge-join, sorted order).
func centroid(ring []svec) svec {
	if len(ring) == 1 {
		return ring[0]
	}
	acc := ring[0]
	for i := 1; i < len(ring); i++ {
		// Running mean via merge: after k merges acc holds the sum; scale
		// once at the end.
		acc = addVec(acc, ring[i])
	}
	out := svec{ids: acc.ids, vals: make([]float64, len(acc.vals))}
	inv := 1 / float64(len(ring))
	for i, v := range acc.vals {
		out.vals[i] = v * inv
	}
	return out
}

func addVec(a, b svec) svec {
	out := svec{
		ids:  make([]string, 0, len(a.ids)+len(b.ids)),
		vals: make([]float64, 0, len(a.ids)+len(b.ids)),
	}
	i, j := 0, 0
	for i < len(a.ids) || j < len(b.ids) {
		switch {
		case j >= len(b.ids) || (i < len(a.ids) && a.ids[i] < b.ids[j]):
			out.ids = append(out.ids, a.ids[i])
			out.vals = append(out.vals, a.vals[i])
			i++
		case i >= len(a.ids) || b.ids[j] < a.ids[i]:
			out.ids = append(out.ids, b.ids[j])
			out.vals = append(out.vals, b.vals[j])
			j++
		default:
			out.ids = append(out.ids, a.ids[i])
			out.vals = append(out.vals, a.vals[i]+b.vals[j])
			i++
			j++
		}
	}
	return out
}

func (d *Detector) alarmedCount() int64 {
	n := int64(0)
	for _, ss := range d.streams {
		if ss.alarmed || ss.staleOn {
			n++
		}
	}
	return n
}

// Frames returns how many frames the detector has consumed.
func (d *Detector) Frames() int { return d.frames }

// Events returns how many events have fired in total.
func (d *Detector) Events() int { return d.events }

// Status summarizes the detector deterministically: streams sorted by
// (NS, Group), the last few events oldest-first.
func (d *Detector) Status() Status {
	st := Status{
		Sensitivity: d.sensitivity,
		Frames:      d.frames,
		Events:      d.events,
	}
	for _, key := range d.order {
		ss := d.streams[key]
		st.Streams = append(st.Streams, StreamStatus{
			NS: ss.ns, Group: ss.group,
			Frames: ss.frames, Support: ss.support,
			Alarmed: ss.alarmed || ss.staleOn,
			Score:   ss.score, CentroidDist: ss.cd, JaccardDrift: ss.jd,
			StaleRun: ss.staleRun, Events: ss.events,
		})
	}
	st.Recent = append(st.Recent, d.recent...)
	return st
}
