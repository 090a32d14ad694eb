package experiment

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"time"

	"repro/crp"
	"repro/internal/netsim"
)

// Overlay path repair, the paper's §IV-B second query type: "when a node
// along a path goes down, one can use knowledge of clusters to quickly
// repair the path and maintain its quality by using another node in the
// same cluster." The experiment builds good one-relay overlay paths, fails
// the relay, and compares repair policies: CRP same-cluster replacement, a
// random replacement, and the oracle best replacement.

// RepairConfig parameterizes the experiment.
type RepairConfig struct {
	// NumPaths is how many overlay paths to build and repair (default 200).
	NumPaths int
	// Schedule drives redirection collection (defaults as elsewhere).
	Schedule ProbeSchedule
	// Threshold is the SMF clustering threshold (default 0.1).
	Threshold float64
}

// RepairResult is one path's latencies (ms) under each policy.
type RepairResult struct {
	Src, Dst, Relay netsim.HostID
	// Before is the original relayed path latency; Direct the relay-free
	// path for reference.
	Before float64
	Direct float64
	// CRP, Random and Oracle are post-repair path latencies. CRPFound
	// reports whether the failed relay had any cluster-mate to promote;
	// when false, CRP falls back to the random replacement.
	CRP      float64
	CRPFound bool
	Random   float64
	Oracle   float64
}

// RepairOutcome aggregates the experiment.
type RepairOutcome struct {
	Results []RepairResult
	// Mean path latencies.
	MeanBefore, MeanCRP, MeanRandom, MeanOracle float64
	// FracCRPFound is the fraction of failed relays with a cluster-mate.
	FracCRPFound float64
	// FracCRPNearOracle is the fraction of CRP repairs within 20% (plus a
	// small absolute allowance) of the best possible repair.
	FracCRPNearOracle float64
}

// RunPathRepair builds NumPaths quality overlay paths among the clients,
// fails each path's relay and repairs it under each policy.
func (s *World) RunPathRepair(cfg RepairConfig) (*RepairOutcome, error) {
	if cfg.NumPaths <= 0 {
		cfg.NumPaths = 200
	}
	if cfg.Schedule.Interval == 0 {
		cfg.Schedule.Interval = 10 * time.Minute
	}
	if cfg.Schedule.Probes == 0 {
		cfg.Schedule.Probes = 36
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = crp.DefaultThreshold
	}
	if len(s.Clients) < 4 {
		return nil, fmt.Errorf("experiment: need at least 4 clients, have %d", len(s.Clients))
	}

	// Cluster the client population on its redirection behaviour.
	svc, err := s.CollectService(s.Clients, cfg.Schedule)
	if err != nil {
		return nil, err
	}
	clusters, err := s.clusterHosts(svc, s.Clients, crp.ClusterConfig{
		Threshold: cfg.Threshold, SecondPass: true, Seed: s.Params.Seed,
	})
	if err != nil {
		return nil, err
	}
	clusterOf := make(map[netsim.HostID][]netsim.HostID)
	for _, c := range clusters {
		members := make([]netsim.HostID, 0, len(c.Members))
		for _, m := range c.Members {
			if id, ok := s.HostOf(m); ok {
				members = append(members, id)
			}
		}
		for _, id := range members {
			clusterOf[id] = members
		}
	}

	evalAt := cfg.Schedule.End() + time.Minute
	pathVia := func(src, relay, dst netsim.HostID) float64 {
		return s.Topo.RTTMs(src, relay, evalAt) + s.Topo.RTTMs(relay, dst, evalAt)
	}

	rng := rand.New(rand.NewPCG(uint64(s.Params.Seed), 0x7265_7061_6972))
	outcome := &RepairOutcome{}
	found, near := 0, 0
	for len(outcome.Results) < cfg.NumPaths {
		src := s.Clients[rng.IntN(len(s.Clients))]
		dst := s.Clients[rng.IntN(len(s.Clients))]
		if src == dst {
			continue
		}
		// The path's relay is the best intermediate node.
		relay, best := netsim.HostID(-1), math.Inf(1)
		for _, x := range s.Clients {
			if x == src || x == dst {
				continue
			}
			if d := pathVia(src, x, dst); d < best {
				relay, best = x, d
			}
		}
		if relay < 0 {
			continue
		}
		res := RepairResult{
			Src: src, Dst: dst, Relay: relay,
			Before: best,
			Direct: s.Topo.RTTMs(src, dst, evalAt),
		}

		// Random replacement.
		for {
			x := s.Clients[rng.IntN(len(s.Clients))]
			if x != src && x != dst && x != relay {
				res.Random = pathVia(src, x, dst)
				break
			}
		}

		// Oracle replacement.
		oracle := math.Inf(1)
		for _, x := range s.Clients {
			if x == src || x == dst || x == relay {
				continue
			}
			if d := pathVia(src, x, dst); d < oracle {
				oracle = d
			}
		}
		res.Oracle = oracle

		// CRP repair: the failed relay's most-similar cluster-mate. Only a
		// cluster of two or more has mates, and each of its members had a
		// lookup, so the service knows both nodes.
		res.CRP = res.Random
		bestSim := -1.0
		for _, mate := range clusterOf[relay] {
			if mate == relay || mate == src || mate == dst {
				continue
			}
			sim, err := svc.Similarity(s.NodeID(relay), s.NodeID(mate))
			if err != nil {
				return nil, err
			}
			if sim > bestSim {
				bestSim = sim
				res.CRP = pathVia(src, mate, dst)
				res.CRPFound = true
			}
		}
		if res.CRPFound {
			found++
			if res.CRP <= res.Oracle*1.2+5 {
				near++
			}
		}

		outcome.Results = append(outcome.Results, res)
		outcome.MeanBefore += res.Before
		outcome.MeanCRP += res.CRP
		outcome.MeanRandom += res.Random
		outcome.MeanOracle += res.Oracle
	}
	n := float64(len(outcome.Results))
	outcome.MeanBefore /= n
	outcome.MeanCRP /= n
	outcome.MeanRandom /= n
	outcome.MeanOracle /= n
	outcome.FracCRPFound = float64(found) / n
	if found > 0 {
		outcome.FracCRPNearOracle = float64(near) / float64(found)
	}
	return outcome, nil
}

// RenderPathRepair prints the repair experiment.
func RenderPathRepair(o *RepairOutcome) string {
	var sb strings.Builder
	sb.WriteString("§IV-B — overlay path repair after relay failure\n")
	fmt.Fprintf(&sb, "%-24s %14s\n", "policy", "mean path (ms)")
	fmt.Fprintf(&sb, "%-24s %14.1f\n", "original (pre-failure)", o.MeanBefore)
	fmt.Fprintf(&sb, "%-24s %14.1f\n", "oracle repair", o.MeanOracle)
	fmt.Fprintf(&sb, "%-24s %14.1f\n", "crp same-cluster repair", o.MeanCRP)
	fmt.Fprintf(&sb, "%-24s %14.1f\n", "random repair", o.MeanRandom)
	fmt.Fprintf(&sb, "paths: %d   relays with a cluster-mate: %.0f%%   repairs within 20%% of the oracle: %.0f%%\n",
		len(o.Results), 100*o.FracCRPFound, 100*o.FracCRPNearOracle)
	return sb.String()
}
