package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/crp"
	"repro/internal/cdn"
	"repro/internal/drift"
	"repro/internal/faults"
	"repro/internal/obs"
)

// The drift experiment scores the CDN-change detector end to end: a
// two-member fleet redirects a client population while the fault plane
// flaps or freezes the secondary CDN's mapping on a known schedule; the
// detector watches the service's ratio-map snapshot stream and its alarms
// are joined against faults.CDNEventSchedule — the compiled ground truth —
// for precision, recall and detection latency, swept across detector
// sensitivity × fault intensity. A churn-only cell re-homes clients' LDNS
// without touching any CDN and must stay alarm-free: the discriminator the
// whole subsystem exists for. Everything runs on the virtual clock with
// seeded draws, so the outcome is byte-identical across same-seed reruns.

// Fleet member namespaces of the drift evaluation.
const (
	DriftPrimaryNS   = "cdnA"
	DriftSecondaryNS = "cdnB"
)

// DriftParams sizes the drift evaluation.
type DriftParams struct {
	Seed        int64
	NumClients  int
	NumReplicas int
	// Interval is the probe cadence; every client resolves every (member,
	// name) pair once per tick.
	Interval time.Duration
	// Ticks is the run length; TicksPerFrame is the snapshot cadence in
	// ticks.
	Ticks         int
	TicksPerFrame int
	// Window is the per-node tracker window in probes.
	Window int
	// Sensitivities is the detector-sensitivity axis; DefaultSensitivity
	// is the one the pass/fail gates are evaluated at.
	Sensitivities      []float64
	DefaultSensitivity float64
	// SecondaryLoadScale makes the faulted CDN's mapping noisier than the
	// primary's.
	SecondaryLoadScale float64
}

// DefaultDriftParams returns the full-scale configuration.
func DefaultDriftParams() DriftParams {
	return DriftParams{
		Seed:               1,
		NumClients:         80,
		NumReplicas:        120,
		Interval:           time.Minute,
		Ticks:              150,
		TicksPerFrame:      2,
		Window:             40,
		Sensitivities:      []float64{0.5, 1, 2},
		DefaultSensitivity: 1,
		SecondaryLoadScale: 1.3,
	}
}

func (p *DriftParams) setDefaults() {
	d := DefaultDriftParams()
	if p.NumClients <= 0 {
		p.NumClients = d.NumClients
	}
	if p.NumReplicas <= 0 {
		p.NumReplicas = d.NumReplicas
	}
	if p.Interval <= 0 {
		p.Interval = d.Interval
	}
	if p.Ticks <= 0 {
		p.Ticks = d.Ticks
	}
	if p.TicksPerFrame <= 0 {
		p.TicksPerFrame = d.TicksPerFrame
	}
	if p.Window <= 0 {
		p.Window = d.Window
	}
	if len(p.Sensitivities) == 0 {
		p.Sensitivities = d.Sensitivities
	}
	if p.DefaultSensitivity <= 0 {
		p.DefaultSensitivity = d.DefaultSensitivity
	}
	if p.SecondaryLoadScale <= 0 {
		p.SecondaryLoadScale = d.SecondaryLoadScale
	}
}

// Horizon is the virtual run length.
func (p DriftParams) Horizon() time.Duration {
	return time.Duration(p.Ticks) * p.Interval
}

// driftScenario is one fault-intensity cell: a named fault schedule against
// the secondary CDN (or, for the churn control, against no CDN at all).
type driftScenario struct {
	name   string
	faults []faults.Fault
	// churn marks the LDNS-churn control cell: zero truth events, and the
	// gates require zero alarms.
	churn bool
}

func driftScenarios() []driftScenario {
	fd := func(d time.Duration) faults.Duration { return faults.Duration(d) }
	return []driftScenario{
		{
			name: "flap-low",
			faults: []faults.Fault{
				{Kind: faults.CDNFlap, CDN: DriftSecondaryNS, Start: fd(40 * time.Minute), Stop: fd(74 * time.Minute)},
			},
		},
		{
			name: "flap-high",
			faults: []faults.Fault{
				{Kind: faults.CDNFlap, CDN: DriftSecondaryNS, Start: fd(30 * time.Minute), Stop: fd(60 * time.Minute)},
				{Kind: faults.CDNFlap, CDN: DriftSecondaryNS, Start: fd(90 * time.Minute), Stop: fd(120 * time.Minute)},
			},
		},
		{
			name: "freeze",
			faults: []faults.Fault{
				{Kind: faults.CDNFreeze, CDN: DriftSecondaryNS, Start: fd(40 * time.Minute), Stop: fd(100 * time.Minute)},
			},
		},
		{
			name:  "churn-only",
			churn: true,
			faults: []faults.Fault{
				{Kind: faults.LDNSChurn, Rate: 0.6, Start: fd(40 * time.Minute), Stop: fd(100 * time.Minute)},
			},
		},
	}
}

// DriftDetection is one detector alarm, joined against the truth schedule.
type DriftDetection struct {
	Kind  string  `json:"kind"`
	NS    string  `json:"ns"`
	AtSec float64 `json:"at_sec"`
	Score float64 `json:"score,omitempty"`
	// Matched is true when the alarm fell inside an open truth window;
	// Fault is that truth event's fault index (-1 for false alarms).
	Matched bool `json:"matched"`
	Fault   int  `json:"fault"`
}

// DriftCell is one (scenario, sensitivity) point of the sweep.
type DriftCell struct {
	Name        string  `json:"scenario"` // the fault schedule this cell ran under
	Sensitivity float64 `json:"sensitivity"`
	Frames      int     `json:"frames"`

	Truth       int `json:"truth"`
	Matched     int `json:"matched"`
	Missed      int `json:"missed"`
	FalseAlarms int `json:"false_alarms"`

	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	// MeanLatencySec averages (detection - truth onset) over matches.
	MeanLatencySec float64 `json:"mean_latency_sec"`

	Detections []DriftDetection `json:"detections,omitempty"`
}

// DriftGate is one self-gating acceptance check.
type DriftGate struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// DriftOutcome is the full report; it carries no timings, so same-seed
// reruns produce the byte-identical file.
type DriftOutcome struct {
	Params      DriftParams                     `json:"params"`
	EpochLenSec float64                         `json:"epoch_len_sec"`
	HorizonSec  float64                         `json:"horizon_sec"`
	Truth       map[string]faults.EventSchedule `json:"truth"`
	Cells       []DriftCell                     `json:"cells"`
	Gates       []DriftGate                     `json:"gates"`
	AllPass     bool                            `json:"all_pass"`
}

// RunDrift executes the sensitivity × intensity sweep.
func RunDrift(p DriftParams) (*DriftOutcome, error) {
	p.setDefaults()
	w, err := NewWorld(
		WorldParams{Seed: p.Seed, NumClients: p.NumClients, NumCandidates: 10, NumReplicas: p.NumReplicas},
		cdn.Config{Namespace: DriftPrimaryNS},
		cdn.Config{Namespace: DriftSecondaryNS, LoadScale: p.SecondaryLoadScale})
	if err != nil {
		return nil, err
	}

	out := &DriftOutcome{
		Params:      p,
		EpochLenSec: cdn.MappingEpoch.Seconds(),
		HorizonSec:  p.Horizon().Seconds(),
		Truth:       make(map[string]faults.EventSchedule),
	}
	for _, sc := range driftScenarios() {
		scenario := faults.Scenario{Seed: uint64(p.Seed), Faults: sc.faults}
		truth := scenario.CDNEventSchedule(cdn.MappingEpoch, p.Horizon())
		out.Truth[sc.name] = truth
		frames, err := collectDriftFrames(p, w, scenario)
		if err != nil {
			return nil, fmt.Errorf("drift cell %s: %w", sc.name, err)
		}
		for _, sens := range p.Sensitivities {
			cell, err := scoreDriftCell(sc.name, sens, frames, truth)
			if err != nil {
				return nil, fmt.Errorf("drift cell %s @%v: %w", sc.name, sens, err)
			}
			out.Cells = append(out.Cells, *cell)
		}
	}
	out.Gates = driftGates(p, out.Cells)
	out.AllPass = true
	for _, g := range out.Gates {
		if !g.Pass {
			out.AllPass = false
		}
	}
	return out, nil
}

// collectDriftFrames drives the probe loop for one fault scenario and taps
// a snapshot frame every TicksPerFrame ticks.
func collectDriftFrames(p DriftParams, w *World, scenario faults.Scenario) ([]crp.DriftFrame, error) {
	plane, err := faults.New(w.Topo, scenario, faults.WithRegistry(obs.NewRegistry()))
	if err != nil {
		return nil, fmt.Errorf("fault plane: %w", err)
	}
	w.AttachFaults(plane)
	svc := crp.NewService(crp.WithWindow(p.Window))
	var frames []crp.DriftFrame
	for t := 0; t < p.Ticks; t++ {
		at := time.Duration(t) * p.Interval
		for _, host := range w.Clients {
			node := w.NodeID(host)
			err := w.Probe(host, at, AllMembers, func(l Lookup) error {
				return svc.Observe(node, l.At, l.IDs...)
			})
			if err != nil {
				return nil, err
			}
		}
		if (t+1)%p.TicksPerFrame == 0 {
			frames = append(frames, svc.DriftFrame(w.At(at)))
		}
	}
	return frames, nil
}

// scoreDriftCell replays one scenario's frames through a fresh detector at
// the given sensitivity and greedily joins its alarms to the truth windows:
// a detection matches the earliest still-unmatched truth event of the same
// kind whose CDN scope covers the alarm's namespace and whose
// [At, Deadline] window contains the alarm time.
func scoreDriftCell(name string, sens float64, frames []crp.DriftFrame, truth faults.EventSchedule) (*DriftCell, error) {
	det, err := drift.New(sens, drift.WithRegistry(obs.NewRegistry()))
	if err != nil {
		return nil, err
	}
	cell := &DriftCell{Name: name, Sensitivity: sens, Frames: len(frames), Truth: len(truth.Events)}
	matched := make([]bool, len(truth.Events))
	latencySum := 0.0
	for _, f := range frames {
		for _, ev := range det.ObserveFrame(f) {
			at := ev.At.Sub(epoch)
			d := DriftDetection{
				Kind: string(ev.Kind), NS: ev.NS, AtSec: at.Seconds(),
				Score: ev.Score, Fault: -1,
			}
			for i, te := range truth.Events {
				if matched[i] || te.Kind != d.Kind {
					continue
				}
				if te.CDN != "" && te.CDN != d.NS {
					continue
				}
				if at < te.At.D() || at > te.Deadline.D() {
					continue
				}
				matched[i] = true
				d.Matched, d.Fault = true, te.Fault
				cell.Matched++
				latencySum += (at - te.At.D()).Seconds()
				break
			}
			if !d.Matched {
				cell.FalseAlarms++
			}
			cell.Detections = append(cell.Detections, d)
		}
	}
	cell.Missed = cell.Truth - cell.Matched
	cell.Precision, cell.Recall = 1, 1
	if n := cell.Matched + cell.FalseAlarms; n > 0 {
		cell.Precision = float64(cell.Matched) / float64(n)
	}
	if cell.Truth > 0 {
		cell.Recall = float64(cell.Matched) / float64(cell.Truth)
	}
	if cell.Matched > 0 {
		cell.MeanLatencySec = latencySum / float64(cell.Matched)
	}
	return cell, nil
}

// driftGates evaluates the acceptance gates at the default sensitivity:
// aggregate precision >= 0.9 and recall >= 0.8 over the CDN-fault cells,
// and zero alarms of any kind on the churn-only control.
func driftGates(p DriftParams, cells []DriftCell) []DriftGate {
	churnNames := make(map[string]bool)
	for _, sc := range driftScenarios() {
		if sc.churn {
			churnNames[sc.name] = true
		}
	}
	truth, matchedN, falseN, churnAlarms := 0, 0, 0, 0
	for _, c := range cells {
		if c.Sensitivity != p.DefaultSensitivity {
			continue
		}
		if churnNames[c.Name] {
			churnAlarms += c.Matched + c.FalseAlarms
			continue
		}
		truth += c.Truth
		matchedN += c.Matched
		falseN += c.FalseAlarms
	}
	precision, recall := 1.0, 1.0
	if n := matchedN + falseN; n > 0 {
		precision = float64(matchedN) / float64(n)
	}
	if truth > 0 {
		recall = float64(matchedN) / float64(truth)
	}
	return []DriftGate{
		{
			Name: "precision", Pass: precision >= 0.9,
			Detail: fmt.Sprintf("fault cells @sens=%v: precision %.3f (matched %d, false %d), need >= 0.9",
				p.DefaultSensitivity, precision, matchedN, falseN),
		},
		{
			Name: "recall", Pass: recall >= 0.8,
			Detail: fmt.Sprintf("fault cells @sens=%v: recall %.3f (matched %d of %d truth events), need >= 0.8",
				p.DefaultSensitivity, recall, matchedN, truth),
		},
		{
			Name: "churn-quiet", Pass: churnAlarms == 0,
			Detail: fmt.Sprintf("churn-only cell @sens=%v: %d alarms, need 0 (LDNS churn must not read as a CDN event)",
				p.DefaultSensitivity, churnAlarms),
		},
	}
}

// RenderDrift formats the outcome as a table.
func RenderDrift(o *DriftOutcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "drift detector sweep: %d clients, %d ticks @ %v (frame every %d ticks), epoch %vs\n",
		o.Params.NumClients, o.Params.Ticks, o.Params.Interval, o.Params.TicksPerFrame, o.EpochLenSec)
	names := make([]string, 0, len(o.Truth))
	for name := range o.Truth {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  truth[%s]: %d events\n", name, len(o.Truth[name].Events))
	}
	fmt.Fprintf(&b, "%-12s %6s %7s %8s %7s %6s %10s %10s %12s\n",
		"scenario", "sens", "truth", "matched", "missed", "false", "precision", "recall", "latency(s)")
	for _, c := range o.Cells {
		fmt.Fprintf(&b, "%-12s %6.2f %7d %8d %7d %6d %10.3f %10.3f %12.1f\n",
			c.Name, c.Sensitivity, c.Truth, c.Matched, c.Missed, c.FalseAlarms,
			c.Precision, c.Recall, c.MeanLatencySec)
	}
	for _, g := range o.Gates {
		status := "PASS"
		if !g.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "gate %-12s %s  %s\n", g.Name, status, g.Detail)
	}
	return b.String()
}
