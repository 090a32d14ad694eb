package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/crp"
)

// Cluster stability: applications act on clusters over time (peer
// selection, path repair), so cluster assignments computed from one day's
// redirections must still mostly hold the next day despite mapping churn,
// load drift and congestion. This extension experiment quantifies that with
// the pairwise agreement (Rand-index style) between clusterings computed
// from disjoint observation windows.

// StabilityConfig parameterizes the study.
type StabilityConfig struct {
	// NumNodes is how many clients to cluster (default 120).
	NumNodes int
	// Window is each observation window's length (default 1 day) at a
	// 10-minute probe interval; the second window starts Gap after the
	// first ends (default 1 day later).
	Window time.Duration
	Gap    time.Duration
	// Threshold is the SMF threshold (default 0.1).
	Threshold float64
}

// StabilityOutcome reports agreement between the two clusterings.
type StabilityOutcome struct {
	// PairAgreement is the fraction of node pairs on which the two
	// clusterings agree (same-cluster both times, or separated both times).
	PairAgreement float64
	// SameClusterRetained is the fraction of day-1 same-cluster pairs that
	// are still clustered together on day 2.
	SameClusterRetained float64
	// ClustersDay1 and ClustersDay2 count multi-node clusters.
	ClustersDay1, ClustersDay2 int
}

// RunClusterStability clusters the same nodes from two disjoint observation
// windows and measures assignment agreement.
func (s *World) RunClusterStability(cfg StabilityConfig) (*StabilityOutcome, error) {
	if cfg.NumNodes <= 0 {
		cfg.NumNodes = 120
	}
	if cfg.NumNodes > len(s.Clients) {
		return nil, fmt.Errorf("experiment: %d nodes requested, only %d clients", cfg.NumNodes, len(s.Clients))
	}
	if cfg.Window <= 0 {
		cfg.Window = 24 * time.Hour
	}
	if cfg.Gap <= 0 {
		cfg.Gap = 24 * time.Hour
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = crp.DefaultThreshold
	}
	nodes := s.Clients[:cfg.NumNodes]
	interval := 10 * time.Minute
	probes := int(cfg.Window / interval)
	if probes < 1 {
		probes = 1
	}

	clusterAt := func(start time.Duration) (map[crp.NodeID]int, int, error) {
		svc, err := s.CollectService(nodes, ProbeSchedule{
			Start: start, Interval: interval, Probes: probes,
		})
		if err != nil {
			return nil, 0, err
		}
		clusters, err := s.clusterHosts(svc, nodes, crp.ClusterConfig{
			Threshold: cfg.Threshold, SecondPass: true, Seed: s.Params.Seed,
		})
		if err != nil {
			return nil, 0, err
		}
		assign := make(map[crp.NodeID]int, len(nodes))
		multi := 0
		for ci, c := range clusters {
			if c.Size() >= 2 {
				multi++
			}
			for _, m := range c.Members {
				assign[m] = ci
			}
		}
		return assign, multi, nil
	}

	day1, n1, err := clusterAt(0)
	if err != nil {
		return nil, err
	}
	day2, n2, err := clusterAt(cfg.Window + cfg.Gap)
	if err != nil {
		return nil, err
	}

	ids := s.nodeIDs(nodes)
	agree, total, togetherBoth, togetherDay1 := 0, 0, 0, 0
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			same1 := day1[ids[i]] == day1[ids[j]]
			same2 := day2[ids[i]] == day2[ids[j]]
			total++
			if same1 == same2 {
				agree++
			}
			if same1 {
				togetherDay1++
				if same2 {
					togetherBoth++
				}
			}
		}
	}
	out := &StabilityOutcome{ClustersDay1: n1, ClustersDay2: n2}
	if total > 0 {
		out.PairAgreement = float64(agree) / float64(total)
	}
	if togetherDay1 > 0 {
		out.SameClusterRetained = float64(togetherBoth) / float64(togetherDay1)
	}
	return out, nil
}

// RenderClusterStability prints the stability study.
func RenderClusterStability(o *StabilityOutcome) string {
	var sb strings.Builder
	sb.WriteString("Ablation — cluster stability across observation windows\n")
	fmt.Fprintf(&sb, "multi-node clusters: day 1 %d, day 2 %d\n", o.ClustersDay1, o.ClustersDay2)
	fmt.Fprintf(&sb, "pairwise agreement: %.0f%%   same-cluster pairs retained: %.0f%%\n",
		100*o.PairAgreement, 100*o.SameClusterRetained)
	return sb.String()
}
