package experiment

import (
	"fmt"
	"sort"
	"time"

	"repro/crp"
	"repro/internal/netsim"
)

// The paper's Figs. 8–9 study how the probe interval and the probe window
// size affect CRP's closest-node quality, measured as the *average rank* of
// the recommended server in the true RTT ordering (rank 0 = optimal). This
// file implements both sweeps over a multi-day virtual experiment.

// RankSweepConfig parameterizes the sensitivity sweeps.
type RankSweepConfig struct {
	// Duration is the total virtual experiment span (default 13 days, the
	// paper's November 12–25 window).
	Duration time.Duration
	// CandidateInterval is the probing interval for candidate servers
	// (default 10 minutes).
	CandidateInterval time.Duration
	// DecisionPoints is how many selection decisions are averaged per
	// client, spaced through the second half of the experiment (default 5).
	DecisionPoints int
}

func (c *RankSweepConfig) setDefaults() {
	if c.Duration <= 0 {
		c.Duration = 13 * 24 * time.Hour
	}
	if c.CandidateInterval <= 0 {
		c.CandidateInterval = 10 * time.Minute
	}
	if c.DecisionPoints <= 0 {
		c.DecisionPoints = 5
	}
}

// RankSeries is one curve of Fig. 8 or Fig. 9: per-client average ranks,
// sorted ascending for plotting. Clients for which CRP never had signal at
// any decision point are excluded, which is why the paper's long-interval
// curves cover fewer DNS servers.
type RankSeries struct {
	Label    string
	AvgRanks []float64
	// ClientsTotal is the full client population; ClientsWithSignal is the
	// number plotted.
	ClientsTotal      int
	ClientsWithSignal int
}

// Mean returns the mean of the per-client average ranks.
func (rs RankSeries) Mean() float64 {
	if len(rs.AvgRanks) == 0 {
		return 0
	}
	s := 0.0
	for _, r := range rs.AvgRanks {
		s += r
	}
	return s / float64(len(rs.AvgRanks))
}

// lookupHistory is a host's full redirection history: one entry per DNS
// lookup (probe step × CDN name), in time order.
type lookupHistory struct {
	times []time.Duration
	sets  [][]crp.ReplicaID
}

// collectHistory gathers a host's lookups under the schedule.
func (s *World) collectHistory(host netsim.HostID, ps ProbeSchedule) (lookupHistory, error) {
	if err := ps.Validate(); err != nil {
		return lookupHistory{}, err
	}
	var h lookupHistory
	for i := 0; i < ps.Probes; i++ {
		at := ps.Start + time.Duration(i)*ps.Interval
		err := s.Probe(host, at, AllMembers, func(l Lookup) error {
			h.times = append(h.times, at)
			h.sets = append(h.sets, l.IDs)
			return nil
		})
		if err != nil {
			return lookupHistory{}, err
		}
	}
	return h, nil
}

// mapUpTo builds the ratio map from the last `window` lookups at or before
// t (window 0 = all lookups so far).
func (h lookupHistory) mapUpTo(t time.Duration, window int) crp.RatioMap {
	end := sort.Search(len(h.times), func(i int) bool { return h.times[i] > t })
	start := 0
	if window > 0 && end-window > 0 {
		start = end - window
	}
	m := make(crp.RatioMap)
	n := end - start
	if n <= 0 {
		return m
	}
	perLookup := 1 / float64(n)
	for i := start; i < end; i++ {
		w := perLookup / float64(len(h.sets[i]))
		for _, r := range h.sets[i] {
			m[r] += w
		}
	}
	return m
}

// rankContext caches, per client, the true candidate orderings at each
// decision time, shared across all series of a sweep.
type rankContext struct {
	decisions []time.Duration
	orders    []*TruthOrder
}

func (s *World) newRankContext(client netsim.HostID, cfg RankSweepConfig) rankContext {
	ctx := rankContext{}
	for i := 0; i < cfg.DecisionPoints; i++ {
		frac := 0.5 + 0.5*float64(i+1)/float64(cfg.DecisionPoints)
		at := time.Duration(float64(cfg.Duration) * frac)
		ctx.decisions = append(ctx.decisions, at)
		ctx.orders = append(ctx.orders, s.TruthOrder(client, at))
	}
	return ctx
}

// avgRank evaluates one client's average Top-1 rank for a history+window
// combination. ok is false when CRP had no signal at every decision point.
func (s *World) avgRank(
	ctx rankContext,
	h lookupHistory,
	window int,
	candMaps map[crp.NodeID]crp.RatioMap,
) (float64, bool) {
	sum, n := 0.0, 0
	for di, at := range ctx.decisions {
		m := h.mapUpTo(at, window)
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
		sum += float64(ctx.orders[di].Rank(id))
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// scheduleFor builds a probe schedule covering the sweep duration at the
// given interval.
func scheduleFor(interval, duration time.Duration) ProbeSchedule {
	probes := int(duration/interval) + 1
	return ProbeSchedule{Interval: interval, Probes: probes}
}

// RunProbeIntervalSweep reproduces Fig. 8: the average rank of CRP's Top-1
// recommendation under different probe intervals (the paper uses 20, 100,
// 500 and 2000 minutes) with an unbounded window.
func (s *World) RunProbeIntervalSweep(intervals []time.Duration, cfg RankSweepConfig) ([]RankSeries, error) {
	cfg.setDefaults()
	if len(intervals) == 0 {
		return nil, fmt.Errorf("experiment: no intervals")
	}
	candMaps, err := s.candidateMaps(scheduleFor(cfg.CandidateInterval, cfg.Duration))
	if err != nil {
		return nil, err
	}

	series := make([]RankSeries, len(intervals))
	for i, iv := range intervals {
		series[i].Label = fmt.Sprintf("Top1 %d mins", int(iv.Minutes()))
		series[i].ClientsTotal = len(s.Clients)
	}
	for _, client := range s.Clients {
		ctx := s.newRankContext(client, cfg)
		for i, iv := range intervals {
			h, err := s.collectHistory(client, scheduleFor(iv, cfg.Duration))
			if err != nil {
				return nil, err
			}
			if r, ok := s.avgRank(ctx, h, 0, candMaps); ok {
				series[i].AvgRanks = append(series[i].AvgRanks, r)
			}
		}
	}
	finishSeries(series)
	return series, nil
}

// RunWindowSweep reproduces Fig. 9: the average rank of CRP's Top-1
// recommendation under different probe window sizes (the paper uses all, 30,
// 10 and 5 probes) with a fixed probe interval (the paper uses 10 minutes).
func (s *World) RunWindowSweep(windows []int, probeInterval time.Duration, cfg RankSweepConfig) ([]RankSeries, error) {
	cfg.setDefaults()
	if len(windows) == 0 {
		return nil, fmt.Errorf("experiment: no windows")
	}
	if probeInterval <= 0 {
		probeInterval = 10 * time.Minute
	}
	candMaps, err := s.candidateMaps(scheduleFor(cfg.CandidateInterval, cfg.Duration))
	if err != nil {
		return nil, err
	}

	series := make([]RankSeries, len(windows))
	for i, w := range windows {
		if w == 0 {
			series[i].Label = "Top1 all probes"
		} else {
			series[i].Label = fmt.Sprintf("Top1 %d probes", w)
		}
		series[i].ClientsTotal = len(s.Clients)
	}
	sched := scheduleFor(probeInterval, cfg.Duration)
	for _, client := range s.Clients {
		ctx := s.newRankContext(client, cfg)
		h, err := s.collectHistory(client, sched)
		if err != nil {
			return nil, err
		}
		for i, w := range windows {
			if r, ok := s.avgRank(ctx, h, w, candMaps); ok {
				series[i].AvgRanks = append(series[i].AvgRanks, r)
			}
		}
	}
	finishSeries(series)
	return series, nil
}

func finishSeries(series []RankSeries) {
	for i := range series {
		sort.Float64s(series[i].AvgRanks)
		series[i].ClientsWithSignal = len(series[i].AvgRanks)
	}
}
