package experiment

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/crp"
	"repro/internal/asn"
	"repro/internal/netsim"
)

// ClusteringConfig parameterizes the Table I / Figs. 6–7 experiment.
type ClusteringConfig struct {
	// NumNodes is how many broadly distributed client DNS servers to
	// cluster (the paper uses 177).
	NumNodes int
	// Schedule drives redirection collection (default 10-minute probes for
	// one day).
	Schedule ProbeSchedule
	// Thresholds are the SMF similarity thresholds to summarize
	// (Table I uses 0.01, 0.1 and 0.5).
	Thresholds []float64
	// FocusThreshold selects the threshold used for the quality analysis of
	// Figs. 6–7 (the paper settles on 0.1).
	FocusThreshold float64
	// MaxDiameterMs drops clusters with larger diameters from the quality
	// analysis (the paper uses 75 ms — "larger clusters are few in number
	// and unlikely to be useful").
	MaxDiameterMs float64
	// SecondPass enables SMF's optional second pass.
	SecondPass bool
}

func (c *ClusteringConfig) setDefaults() {
	if c.NumNodes <= 0 {
		c.NumNodes = 177
	}
	if c.Schedule.Interval == 0 {
		c.Schedule.Interval = 10 * time.Minute
	}
	if c.Schedule.Probes == 0 {
		c.Schedule.Probes = 144
	}
	if len(c.Thresholds) == 0 {
		c.Thresholds = []float64{0.01, 0.1, 0.5}
	}
	if c.FocusThreshold == 0 {
		c.FocusThreshold = crp.DefaultThreshold
	}
	if c.MaxDiameterMs == 0 {
		c.MaxDiameterMs = 75
	}
}

// AlgorithmResult is one row of Table I plus the quality statistics used by
// Figs. 6–7.
type AlgorithmResult struct {
	Label    string
	Summary  crp.Summary
	Clusters []crp.Cluster
	// Stats covers clusters of size ≥ 2 with diameter ≤ MaxDiameterMs.
	Stats []crp.ClusterStats
	// GoodBuckets counts good clusters with diameters in (0,25] and
	// (25,75] ms, Fig. 7's two buckets.
	GoodBuckets []int
}

// ClusteringOutcome is the complete clustering evaluation.
type ClusteringOutcome struct {
	Config ClusteringConfig
	Nodes  []netsim.HostID
	// CRPRows has one entry per threshold, in Thresholds order; Focus
	// indexes the FocusThreshold row. ASN is the baseline.
	CRPRows []AlgorithmResult
	Focus   int
	ASN     AlgorithmResult
}

// clusterHosts clusters hosts with SMF through svc.ClusterAll, where svc
// holds exactly the hosts that had a lookup. A host with no lookup is
// absent from svc and has no ratio map to cluster by: it is a singleton,
// placed among the other singletons in center order.
func (s *World) clusterHosts(svc *crp.Service, hosts []netsim.HostID, cfg crp.ClusterConfig) ([]crp.Cluster, error) {
	clusters, err := svc.ClusterAll(cfg)
	if err != nil {
		return nil, err
	}
	known := svc.Nodes()
	if len(known) == len(hosts) {
		return clusters, nil
	}
	for _, id := range s.nodeIDs(hosts) {
		if _, found := slices.BinarySearch(known, id); !found {
			clusters = append(clusters, crp.Cluster{Center: id, Members: []crp.NodeID{id}})
		}
	}
	slices.SortFunc(clusters, func(a, b crp.Cluster) int {
		return cmp.Or(cmp.Compare(b.Size(), a.Size()), cmp.Compare(a.Center, b.Center))
	})
	return clusters, nil
}

// RunClustering reproduces the paper's clustering evaluation: CRP ratio maps
// are collected for a set of broadly distributed DNS servers, clustered with
// SMF at several thresholds, and compared against ASN-based clustering on
// the same nodes with the same ground-truth distances.
func (s *World) RunClustering(cfg ClusteringConfig) (*ClusteringOutcome, error) {
	cfg.setDefaults()
	if err := cfg.Schedule.Validate(); err != nil {
		return nil, err
	}
	if cfg.NumNodes > len(s.Clients) {
		return nil, fmt.Errorf("experiment: %d nodes requested, only %d clients", cfg.NumNodes, len(s.Clients))
	}
	nodes := s.Clients[:cfg.NumNodes]
	evalAt := cfg.Schedule.End() + time.Minute

	dist := s.clusterDistance(nodes, evalAt)
	svc, err := s.CollectService(nodes, cfg.Schedule)
	if err != nil {
		return nil, err
	}

	outcome := &ClusteringOutcome{Config: cfg, Nodes: nodes, Focus: -1}
	for i, t := range cfg.Thresholds {
		clusters, err := s.clusterHosts(svc, nodes, crp.ClusterConfig{
			Threshold:  t,
			SecondPass: cfg.SecondPass,
			Seed:       s.Params.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("SMF at t=%v: %w", t, err)
		}
		row, err := s.analyzeClusters(fmt.Sprintf("CRP (t=%g)", t), clusters, len(nodes), dist, cfg.MaxDiameterMs)
		if err != nil {
			return nil, err
		}
		outcome.CRPRows = append(outcome.CRPRows, row)
		if t == cfg.FocusThreshold {
			outcome.Focus = i
		}
	}
	if outcome.Focus < 0 {
		outcome.Focus = 0
	}

	table, err := asn.BuildTable(s.Topo)
	if err != nil {
		return nil, err
	}
	asnClusters, err := asn.Clusters(s.Topo, table, nodes, func(a, b netsim.HostID) float64 {
		return dist(s.NodeID(a), s.NodeID(b))
	})
	if err != nil {
		return nil, fmt.Errorf("asn clustering: %w", err)
	}
	outcome.ASN, err = s.analyzeClusters("ASN", asnClusters, len(nodes), dist, cfg.MaxDiameterMs)
	if err != nil {
		return nil, err
	}
	return outcome, nil
}

// clusterDistance builds the ground-truth DistanceFunc over the node set,
// fully precomputed so cluster evaluation is cheap and consistent.
func (s *World) clusterDistance(nodes []netsim.HostID, at time.Duration) crp.DistanceFunc {
	matrix := make(map[crp.NodeID]map[crp.NodeID]float64, len(nodes))
	for _, id := range nodes {
		matrix[s.NodeID(id)] = make(map[crp.NodeID]float64, len(nodes))
	}
	for i, a := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			b := nodes[j]
			d := s.TruthRTTMs(a, b, at)
			matrix[s.NodeID(a)][s.NodeID(b)] = d
			matrix[s.NodeID(b)][s.NodeID(a)] = d
		}
	}
	return func(a, b crp.NodeID) float64 {
		if a == b {
			return 0
		}
		return matrix[a][b]
	}
}

// analyzeClusters computes a Table I row and the Figs. 6–7 statistics.
func (s *World) analyzeClusters(label string, clusters []crp.Cluster, total int, dist crp.DistanceFunc, maxDiameter float64) (AlgorithmResult, error) {
	stats, err := crp.EvaluateClusters(clusters, dist)
	if err != nil {
		return AlgorithmResult{}, err
	}
	kept := stats[:0]
	for _, st := range stats {
		if st.Diameter <= maxDiameter {
			kept = append(kept, st)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Intra < kept[j].Intra })
	return AlgorithmResult{
		Label:       label,
		Summary:     crp.Summarize(clusters, total),
		Clusters:    clusters,
		Stats:       kept,
		GoodBuckets: crp.GoodClusterCounts(kept, []float64{25, 75}),
	}, nil
}

// IntraCDF returns the sorted intracluster distances (the solid curve of
// Fig. 6) and, aligned with it, each cluster's intercluster distance (the
// circular points).
func (r AlgorithmResult) IntraCDF() (intra, inter []float64) {
	for _, st := range r.Stats {
		intra = append(intra, st.Intra)
		inter = append(inter, st.Inter)
	}
	return intra, inter
}

// GoodFraction is the fraction of evaluated clusters in the "good" region.
func (r AlgorithmResult) GoodFraction() float64 {
	if len(r.Stats) == 0 {
		return 0
	}
	n := 0
	for _, st := range r.Stats {
		if st.Good() {
			n++
		}
	}
	return float64(n) / float64(len(r.Stats))
}
