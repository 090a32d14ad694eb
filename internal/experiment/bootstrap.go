package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/crp"
)

// Bootstrap study: §VI derives CRP's cold-start time from Fig. 9 — with a
// 10-minute probe interval and a 10-probe window, a client can make
// effective decisions ~100 minutes after it first appears. This experiment
// measures it directly: the average Top-1 rank as a function of the number
// of probes a fresh client has collected.

// BootstrapPoint is one point on the bootstrap curve.
type BootstrapPoint struct {
	Probes int
	// MeanRank is the average Top-1 rank over clients that have signal.
	MeanRank float64
	// MedianRank is the median over the same clients.
	MedianRank float64
	// FracWithSignal is the fraction of clients with any candidate overlap.
	FracWithSignal float64
}

// BootstrapConfig parameterizes the bootstrap study.
type BootstrapConfig struct {
	// ProbeCounts are the history lengths to evaluate (default 1..30 in
	// steps matching the paper's window sizes).
	ProbeCounts []int
	// Interval is the probe interval (default 10 minutes, as in Fig. 9).
	Interval time.Duration
	// CandidateSchedule drives candidate map collection; defaults to the
	// same interval over the longest client history.
	CandidateSchedule ProbeSchedule
}

// RunBootstrap evaluates closest-node quality as a fresh client accumulates
// its first probes.
func (s *World) RunBootstrap(cfg BootstrapConfig) ([]BootstrapPoint, error) {
	if len(cfg.ProbeCounts) == 0 {
		cfg.ProbeCounts = []int{1, 2, 3, 5, 10, 20, 30}
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Minute
	}
	maxProbes := 0
	for _, n := range cfg.ProbeCounts {
		if n <= 0 {
			return nil, fmt.Errorf("experiment: non-positive probe count %d", n)
		}
		if n > maxProbes {
			maxProbes = n
		}
	}
	if cfg.CandidateSchedule.Interval == 0 {
		cfg.CandidateSchedule = ProbeSchedule{Interval: cfg.Interval, Probes: maxProbes}
	}
	candMaps, err := s.candidateMaps(cfg.CandidateSchedule)
	if err != nil {
		return nil, err
	}

	sched := ProbeSchedule{Interval: cfg.Interval, Probes: maxProbes}
	evalAt := sched.End() + time.Minute

	type agg struct {
		ranks  []float64
		signal int
	}
	aggs := make([]agg, len(cfg.ProbeCounts))

	for _, client := range s.Clients {
		h, err := s.collectHistory(client, sched)
		if err != nil {
			return nil, err
		}
		order := s.TruthOrder(client, evalAt)
		for pi, probes := range cfg.ProbeCounts {
			// The client's map after its first `probes` probe steps. Each
			// step issues one lookup per CDN name.
			cutoff := time.Duration(probes-1) * cfg.Interval
			m := h.mapUpTo(cutoff, 0)
			if len(m) == 0 {
				continue
			}
			best, ok := crp.SelectClosest(m, candMaps)
			if !ok {
				continue
			}
			id, found := s.HostOf(best.Node)
			if !found {
				continue
			}
			aggs[pi].signal++
			aggs[pi].ranks = append(aggs[pi].ranks, float64(order.Rank(id)))
		}
	}

	out := make([]BootstrapPoint, len(cfg.ProbeCounts))
	for i, probes := range cfg.ProbeCounts {
		p := BootstrapPoint{Probes: probes}
		if n := len(aggs[i].ranks); n > 0 {
			sum := 0.0
			for _, r := range aggs[i].ranks {
				sum += r
			}
			p.MeanRank = sum / float64(n)
			sorted := append([]float64(nil), aggs[i].ranks...)
			sort.Float64s(sorted)
			p.MedianRank = sorted[n/2]
		}
		p.FracWithSignal = float64(aggs[i].signal) / float64(len(s.Clients))
		out[i] = p
	}
	return out, nil
}

// RenderBootstrap prints the bootstrap curve.
func RenderBootstrap(points []BootstrapPoint, interval time.Duration) string {
	var sb strings.Builder
	sb.WriteString("§VI — bootstrap: selection quality vs probes collected\n")
	fmt.Fprintf(&sb, "%8s %12s %10s %12s %12s\n",
		"probes", "wall time", "signal", "mean rank", "median rank")
	for _, p := range points {
		fmt.Fprintf(&sb, "%8d %12s %9.0f%% %12.1f %12.1f\n",
			p.Probes, time.Duration(p.Probes)*interval, 100*p.FracWithSignal,
			p.MeanRank, p.MedianRank)
	}
	return sb.String()
}
