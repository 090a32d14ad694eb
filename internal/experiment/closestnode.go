package experiment

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/crp"
	"repro/internal/netsim"
)

// ClosestNodeConfig parameterizes the Figs. 4–5 experiment.
type ClosestNodeConfig struct {
	// Schedule drives the redirection collection for clients and candidates.
	// The zero value uses a 10-minute interval for one day with an unbounded
	// window.
	Schedule ProbeSchedule
	// TopK is the size of the CRP "Top K" recommendation (the paper uses 5).
	TopK int
}

func (c *ClosestNodeConfig) setDefaults() {
	if c.Schedule.Interval == 0 {
		c.Schedule.Interval = 10 * time.Minute
	}
	if c.Schedule.Probes == 0 {
		c.Schedule.Probes = 144 // one day at 10-minute intervals
	}
	if c.TopK <= 0 {
		c.TopK = 5
	}
}

// ClientResult is one client's outcome in the closest-node experiment.
type ClientResult struct {
	Client netsim.HostID
	// Signal reports whether CRP had any nonzero similarity to a candidate.
	Signal bool
	// Optimal is the RTT to the truly closest candidate.
	Optimal float64
	// CRPTop1 is the RTT to CRP's best recommendation, CRPTopK the average
	// RTT over its top-K recommendations.
	CRPTop1 float64
	CRPTopK float64
	// CRPTop1Rank is the 0-based index of CRP's best recommendation in the
	// true RTT ordering of all candidates.
	CRPTop1Rank int
	// Meridian is the RTT to the Meridian recommendation, MeridianRank its
	// position in the true ordering.
	Meridian     float64
	MeridianRank int
}

// ClosestNodeOutcome is the complete result of the Figs. 4–5 experiment.
type ClosestNodeOutcome struct {
	Config  ClosestNodeConfig
	EvalAt  time.Duration
	Results []ClientResult
}

// RunClosestNode reproduces the paper's closest-node selection experiment:
// clients and candidates accumulate CDN redirections, then for every client
// we compare the candidate CRP recommends (Top-1 and Top-K) against the
// Meridian overlay's recommendation and the true optimum.
func (s *PaperWorld) RunClosestNode(cfg ClosestNodeConfig) (*ClosestNodeOutcome, error) {
	cfg.setDefaults()
	if err := cfg.Schedule.Validate(); err != nil {
		return nil, err
	}
	evalAt := cfg.Schedule.End() + time.Minute

	candMaps, err := s.candidateMaps(cfg.Schedule)
	if err != nil {
		return nil, err
	}
	entry, err := s.meridianEntry()
	if err != nil {
		return nil, err
	}

	outcome := &ClosestNodeOutcome{Config: cfg, EvalAt: evalAt}
	for _, client := range s.Clients {
		tr, err := s.CollectTracker(client, cfg.Schedule)
		if err != nil {
			return nil, err
		}
		res, err := s.evaluateClient(client, tr.RatioMap(), candMaps, entry, evalAt, cfg.TopK)
		if err != nil {
			return nil, err
		}
		outcome.Results = append(outcome.Results, res)
	}
	return outcome, nil
}

// candidateMaps collects the candidate servers' ratio maps under a schedule.
func (s *World) candidateMaps(ps ProbeSchedule) (map[crp.NodeID]crp.RatioMap, error) {
	maps, err := s.CollectRatioMaps(s.Candidates, ps)
	if err != nil {
		return nil, err
	}
	out := make(map[crp.NodeID]crp.RatioMap, len(maps))
	for id, m := range maps {
		out[s.NodeID(id)] = m
	}
	return out, nil
}

// meridianEntry picks the entry node for Meridian queries: the paper used
// its (healthy) measuring PlanetLab host, so we use the first member without
// an injected failure.
func (s *PaperWorld) meridianEntry() (netsim.HostID, error) {
	for _, id := range s.Meridian.Members() {
		if h, ok := s.Meridian.Health(id); ok && !h.Selfish && !h.Dead && !h.Partitioned {
			return id, nil
		}
	}
	return 0, errors.New("experiment: no healthy meridian entry node")
}

// evaluateClient scores CRP and Meridian recommendations for one client.
func (s *PaperWorld) evaluateClient(
	client netsim.HostID,
	clientMap crp.RatioMap,
	candMaps map[crp.NodeID]crp.RatioMap,
	entry netsim.HostID,
	evalAt time.Duration,
	topK int,
) (ClientResult, error) {
	res := ClientResult{Client: client}

	order := s.TruthOrder(client, evalAt)
	res.Optimal = order.RTT[order.Hosts[0]]

	// CRP recommendations.
	ranked := crp.RankBySimilarity(clientMap, candMaps)
	if len(ranked) == 0 {
		return res, fmt.Errorf("experiment: no candidates ranked for client %d", client)
	}
	res.Signal = ranked[0].Similarity > 0
	top1, ok := s.HostOf(ranked[0].Node)
	if !ok {
		return res, fmt.Errorf("experiment: unknown candidate node %q", ranked[0].Node)
	}
	res.CRPTop1 = order.RTT[top1]
	res.CRPTop1Rank = order.Rank(top1)
	k := topK
	if k > len(ranked) {
		k = len(ranked)
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		id, ok := s.HostOf(ranked[i].Node)
		if !ok {
			return res, fmt.Errorf("experiment: unknown candidate node %q", ranked[i].Node)
		}
		sum += order.RTT[id]
	}
	res.CRPTopK = sum / float64(k)

	// Meridian recommendation.
	rec, _, err := s.Meridian.ClosestTo(entry, client, evalAt)
	if err != nil {
		return res, fmt.Errorf("meridian query for client %d: %w", client, err)
	}
	res.Meridian = order.RTT[rec]
	res.MeridianRank = order.Rank(rec)
	return res, nil
}

// SortedSeries returns the outcome's per-client values for one metric,
// sorted ascending — the form in which the paper plots Figs. 4 and 5 (each
// curve sorted independently over the client population).
func (o *ClosestNodeOutcome) SortedSeries(metric func(ClientResult) float64) []float64 {
	out := make([]float64, 0, len(o.Results))
	for _, r := range o.Results {
		out = append(out, metric(r))
	}
	sort.Float64s(out)
	return out
}

// Headline statistics quoted in the paper's §V-A prose.
type ClosestNodeStats struct {
	Clients int
	// FracTopKNearMeridian is the fraction of clients where the CRP Top-K
	// latency differs from Meridian's by less than 7 ms (paper: ~65%).
	FracTopKNearMeridian float64
	// FracCRPBeatsMeridian is the fraction where CRP Top-K strictly
	// improves on Meridian (paper: >25%).
	FracCRPBeatsMeridian float64
	// FracMeridianTwiceCRP is the fraction where Meridian's RTT is at least
	// twice CRP Top-K's (paper: ~10%).
	FracMeridianTwiceCRP float64
	// MeanCRPTop1, MeanCRPTopK, MeanMeridian, MeanOptimal are population
	// means of the selected-server RTTs.
	MeanCRPTop1  float64
	MeanCRPTopK  float64
	MeanMeridian float64
	MeanOptimal  float64
	// FracNoSignal is the fraction of clients CRP had no information for.
	FracNoSignal float64
}

// Stats computes the headline statistics.
func (o *ClosestNodeOutcome) Stats() ClosestNodeStats {
	st := ClosestNodeStats{Clients: len(o.Results)}
	if st.Clients == 0 {
		return st
	}
	var near, beats, twice, noSignal int
	for _, r := range o.Results {
		if math.Abs(r.CRPTopK-r.Meridian) < 7 {
			near++
		}
		if r.CRPTopK < r.Meridian {
			beats++
		}
		if r.CRPTopK > 0 && r.Meridian >= 2*r.CRPTopK {
			twice++
		}
		if !r.Signal {
			noSignal++
		}
		st.MeanCRPTop1 += r.CRPTop1
		st.MeanCRPTopK += r.CRPTopK
		st.MeanMeridian += r.Meridian
		st.MeanOptimal += r.Optimal
	}
	n := float64(st.Clients)
	st.FracTopKNearMeridian = float64(near) / n
	st.FracCRPBeatsMeridian = float64(beats) / n
	st.FracMeridianTwiceCRP = float64(twice) / n
	st.FracNoSignal = float64(noSignal) / n
	st.MeanCRPTop1 /= n
	st.MeanCRPTopK /= n
	st.MeanMeridian /= n
	st.MeanOptimal /= n
	return st
}
