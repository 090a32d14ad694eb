package experiment

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/crp"
	"repro/internal/faults"
	"repro/internal/netsim"
)

// The degradation suite answers the question the benign experiments never
// ask: when the substrate misbehaves — probes time out, the CDN's map
// freezes across TTL windows, resolvers churn, a region storms — does CRP
// positioning degrade gracefully, or silently mis-cluster? It runs the
// same closest-node and SMF-clustering evaluation twice over one world,
// once clean and once with a fault plane attached, and reports both sides
// so tests can assert declared envelopes. Both runs are bit-reproducible:
// the topology, the CDN and the fault plane all derive every decision from
// seeds.

// DegradationConfig parameterizes one degradation run.
type DegradationConfig struct {
	// Params sizes the world (reduced scale is fine: the suite compares
	// faulted vs clean under identical conditions rather than reproducing
	// paper numbers). No Meridian overlay is built — it is not under test
	// here.
	Params WorldParams
	// Schedule drives probe collection. Zero value: 12 probes at 10-minute
	// intervals.
	Schedule ProbeSchedule
	// Faults is the fault scenario applied to the faulted run.
	Faults faults.Scenario
	// TopK is the recommendation depth scored (default 3).
	TopK int
	// Threshold is the SMF clustering threshold (default crp.DefaultThreshold).
	Threshold float64
}

func (c *DegradationConfig) setDefaults() {
	if c.Params.NumClients == 0 && c.Params.NumCandidates == 0 && c.Params.NumReplicas == 0 {
		c.Params = WorldParams{Seed: 1, NumClients: 40, NumCandidates: 60, NumReplicas: 150}
	}
	if c.Schedule.Interval == 0 {
		c.Schedule.Interval = 10 * time.Minute
	}
	if c.Schedule.Probes == 0 {
		c.Schedule.Probes = 12
	}
	if c.TopK <= 0 {
		c.TopK = 3
	}
	if c.Threshold == 0 {
		c.Threshold = crp.DefaultThreshold
	}
}

// DegradationMetrics is one side (clean or faulted) of a degradation run.
type DegradationMetrics struct {
	Clients int `json:"clients"`
	// MeanTop1Rank is the mean 0-based rank of CRP's top recommendation in
	// the true RTT ordering of all candidates (0 = optimal).
	MeanTop1Rank float64 `json:"meanTop1Rank"`
	// MeanTopKRTTMs / MeanOptimalRTTMs compare achieved against optimal
	// latency.
	MeanTopKRTTMs    float64 `json:"meanTopKRTTMs"`
	MeanOptimalRTTMs float64 `json:"meanOptimalRTTMs"`
	// FracNoSignal is the fraction of clients whose ratio maps carried no
	// similarity signal at all (every probe lost, or history gone stale).
	FracNoSignal float64 `json:"fracNoSignal"`
	// Clusters / GoodClusterFrac summarize SMF clustering of the candidate
	// population: the fraction of size >= 2 clusters whose intercluster
	// distance exceeds their intracluster distance (the paper's "good"
	// region).
	Clusters        int     `json:"clusters"`
	GoodClusterFrac float64 `json:"goodClusterFrac"`
}

// DegradationOutcome is a complete clean-vs-faulted comparison.
type DegradationOutcome struct {
	Clean   DegradationMetrics `json:"clean"`
	Faulted DegradationMetrics `json:"faulted"`
	// Activations counts, per fault kind, how often the plane actually
	// fired during the faulted run. A test asserting a fault's effect must
	// first assert its activation count is nonzero.
	Activations map[faults.Kind]uint64 `json:"activations"`
}

// Envelope declares how much degradation a fault scenario is allowed to
// cause. Zero-valued fields are not checked.
type Envelope struct {
	// MaxTop1RankSlack bounds the faulted mean top-1 rank to the clean
	// value plus this many ranks.
	MaxTop1RankSlack float64
	// MaxNoSignalFrac bounds the faulted fraction of signal-less clients.
	MaxNoSignalFrac float64
	// MaxGoodClusterDrop bounds the absolute drop in good-cluster fraction
	// versus the clean run.
	MaxGoodClusterDrop float64
}

// Check asserts the outcome stays within the envelope.
func (o *DegradationOutcome) Check(env Envelope) error {
	if env.MaxTop1RankSlack > 0 {
		if o.Faulted.MeanTop1Rank > o.Clean.MeanTop1Rank+env.MaxTop1RankSlack {
			return fmt.Errorf("experiment: mean top-1 rank degraded %0.2f -> %0.2f, beyond slack %0.2f",
				o.Clean.MeanTop1Rank, o.Faulted.MeanTop1Rank, env.MaxTop1RankSlack)
		}
	}
	if env.MaxNoSignalFrac > 0 {
		if o.Faulted.FracNoSignal > env.MaxNoSignalFrac {
			return fmt.Errorf("experiment: %0.3f of clients lost all signal, beyond %0.3f",
				o.Faulted.FracNoSignal, env.MaxNoSignalFrac)
		}
	}
	if env.MaxGoodClusterDrop > 0 {
		if drop := o.Clean.GoodClusterFrac - o.Faulted.GoodClusterFrac; drop > env.MaxGoodClusterDrop {
			return fmt.Errorf("experiment: good-cluster fraction dropped %0.3f -> %0.3f, beyond %0.3f",
				o.Clean.GoodClusterFrac, o.Faulted.GoodClusterFrac, env.MaxGoodClusterDrop)
		}
	}
	return nil
}

// RunDegradation builds the world from cfg.Params, evaluates closest-node
// accuracy and SMF cluster quality on it clean, attaches the fault plane,
// evaluates again, and returns the comparison.
func RunDegradation(cfg DegradationConfig) (*DegradationOutcome, error) {
	cfg.setDefaults()
	if err := cfg.Schedule.Validate(); err != nil {
		return nil, err
	}

	w, err := NewWorld(cfg.Params)
	if err != nil {
		return nil, err
	}
	cleanM, err := evalPositioning(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("clean run: %w", err)
	}

	plane, err := faults.New(w.Topo, cfg.Faults)
	if err != nil {
		return nil, err
	}
	w.AttachFaults(plane)
	faultedM, err := evalPositioning(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("faulted run: %w", err)
	}

	return &DegradationOutcome{
		Clean:       cleanM,
		Faulted:     faultedM,
		Activations: plane.Activations(),
	}, nil
}

// evalPositioning runs the reduced closest-node + clustering evaluation on
// the world as it stands. Evaluation-side ground truth must not see the fault
// plane's latency perturbations (we score against the network the paper's
// King measurements would see, not against the storm), so the perturbation
// is detached around truth RTT evaluation.
func evalPositioning(s *World, cfg DegradationConfig) (DegradationMetrics, error) {
	var m DegradationMetrics
	evalAt := cfg.Schedule.End() + time.Minute

	// Collection happens with the fault plane fully attached: candidate
	// and client histories see the faulted CDN, resolvers and network.
	candMaps, err := s.candidateMaps(cfg.Schedule)
	if err != nil {
		return m, err
	}
	m.Clients = len(s.Clients)
	if m.Clients == 0 {
		return m, errors.New("experiment: scenario has no clients")
	}
	clientMaps := make(map[netsim.HostID]crp.RatioMap, m.Clients)
	for _, client := range s.Clients {
		tr, err := s.CollectTracker(client, cfg.Schedule)
		if err != nil {
			return m, err
		}
		clientMaps[client] = tr.RatioMap()
	}

	// Scoring happens against ground truth with the latency perturbation
	// detached: clean and faulted runs share the same yardstick (the calm
	// network the paper's King measurements would see), so the comparison
	// isolates what the faults did to CRP's *information*, not to the
	// scoring ruler.
	truth := func(a, b netsim.HostID) float64 {
		return s.TruthRTTMs(a, b, evalAt)
	}
	s.Topo.SetPerturb(nil)
	defer func() {
		if s.faults != nil {
			s.Topo.SetPerturb(s.faults)
		}
	}()

	var noSignal int
	for _, client := range s.Clients {
		ranked := crp.RankBySimilarity(clientMaps[client], candMaps)
		if len(ranked) == 0 {
			return m, fmt.Errorf("experiment: no candidates ranked for client %d", client)
		}
		if ranked[0].Similarity == 0 {
			noSignal++
		}

		order := s.TruthOrder(client, evalAt)
		top1, ok := s.HostOf(ranked[0].Node)
		if !ok {
			return m, fmt.Errorf("experiment: unknown candidate %q", ranked[0].Node)
		}
		m.MeanTop1Rank += float64(order.Rank(top1))
		k := cfg.TopK
		if k > len(ranked) {
			k = len(ranked)
		}
		sum := 0.0
		for i := 0; i < k; i++ {
			id, ok := s.HostOf(ranked[i].Node)
			if !ok {
				return m, fmt.Errorf("experiment: unknown candidate %q", ranked[i].Node)
			}
			sum += order.RTT[id]
		}
		m.MeanTopKRTTMs += sum / float64(k)
		m.MeanOptimalRTTMs += order.RTT[order.Hosts[0]]
	}
	n := float64(m.Clients)
	m.MeanTop1Rank /= n
	m.MeanTopKRTTMs /= n
	m.MeanOptimalRTTMs /= n
	m.FracNoSignal = float64(noSignal) / n

	// SMF clustering of the candidate population, scored against truth.
	nodes := make([]crp.Node, 0, len(candMaps))
	for id, rm := range candMaps {
		nodes = append(nodes, crp.Node{ID: id, Map: rm})
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	clusters, err := crp.ClusterSMF(nodes, crp.ClusterConfig{
		Threshold:  cfg.Threshold,
		SecondPass: true,
		Seed:       cfg.Params.Seed,
	})
	if err != nil {
		return m, err
	}
	dist := func(a, b crp.NodeID) float64 {
		ha, ok := s.HostOf(a)
		if !ok {
			return 0
		}
		hb, ok := s.HostOf(b)
		if !ok {
			return 0
		}
		return truth(ha, hb)
	}
	stats, err := crp.EvaluateClusters(clusters, dist)
	if err != nil {
		return m, err
	}
	m.Clusters = len(stats)
	if len(stats) > 0 {
		good := 0
		for _, st := range stats {
			if st.Good() {
				good++
			}
		}
		m.GoodClusterFrac = float64(good) / float64(len(stats))
	}
	return m, nil
}
