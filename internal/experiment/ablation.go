package experiment

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/crp"
	"repro/internal/binning"
	"repro/internal/gnp"
	"repro/internal/netsim"
	"repro/internal/vivaldi"
)

// Ablations beyond the paper's own evaluation, quantifying the design
// choices DESIGN.md calls out: the cosine similarity metric (vs. cruder
// set-overlap metrics), the SMF center-selection heuristic (vs. random
// centers), the dependence on CDN coverage density, and a Vivaldi
// network-coordinates baseline.

// SimilarityAblationRow reports closest-node quality for one similarity
// metric.
type SimilarityAblationRow struct {
	Label    string
	MeanRTT  float64
	MeanRank float64
}

// RunSimilarityAblation replays the closest-node experiment with three
// similarity metrics: the paper's frequency-weighted cosine similarity, the
// set-based Jaccard index, and a raw shared-replica count.
func (s *World) RunSimilarityAblation(cfg ClosestNodeConfig) ([]SimilarityAblationRow, error) {
	cfg.setDefaults()
	candMaps, err := s.candidateMaps(cfg.Schedule)
	if err != nil {
		return nil, err
	}
	evalAt := cfg.Schedule.End() + 1

	metrics := []struct {
		label string
		sim   func(a, b crp.RatioMap) float64
	}{
		{"cosine", crp.CosineSimilarity},
		{"jaccard", crp.JaccardSimilarity},
		{"overlap-count", func(a, b crp.RatioMap) float64 { return float64(crp.OverlapCount(a, b)) }},
	}

	// Stable candidate ordering for iteration.
	candIDs := make([]crp.NodeID, 0, len(candMaps))
	for id := range candMaps {
		candIDs = append(candIDs, id)
	}
	sort.Slice(candIDs, func(i, j int) bool { return candIDs[i] < candIDs[j] })

	rows := make([]SimilarityAblationRow, len(metrics))
	for i, m := range metrics {
		rows[i].Label = m.label
	}
	for _, client := range s.Clients {
		tr, err := s.CollectTracker(client, cfg.Schedule)
		if err != nil {
			return nil, err
		}
		clientMap := tr.RatioMap()

		order := s.TruthOrder(client, evalAt)
		for mi, m := range metrics {
			bestID, bestSim := candIDs[0], -1.0
			for _, id := range candIDs {
				if sim := m.sim(clientMap, candMaps[id]); sim > bestSim {
					bestID, bestSim = id, sim
				}
			}
			best, _ := s.HostOf(bestID)
			rows[mi].MeanRTT += order.RTT[best]
			rows[mi].MeanRank += float64(order.Rank(best))
		}
	}
	n := float64(len(s.Clients))
	for i := range rows {
		rows[i].MeanRTT /= n
		rows[i].MeanRank /= n
	}
	return rows, nil
}

// CoveragePoint reports CRP quality under one CDN deployment size.
type CoveragePoint struct {
	Replicas     int
	MeanCRPTopK  float64
	MeanOptimal  float64
	FracNoSignal float64
}

// RunCoverageSweep rebuilds the world with progressively larger CDN
// deployments and reports CRP's closest-node quality at each size — the
// paper's observation that CRP accuracy tracks the CDN's coverage in the
// client's region, made quantitative.
func RunCoverageSweep(base WorldParams, replicaCounts []int, cfg ClosestNodeConfig) ([]CoveragePoint, error) {
	var out []CoveragePoint
	for _, n := range replicaCounts {
		p := base
		p.NumReplicas = n
		sc, err := NewPaperWorld(p)
		if err != nil {
			return nil, fmt.Errorf("scenario with %d replicas: %w", n, err)
		}
		outcome, err := sc.RunClosestNode(cfg)
		if err != nil {
			return nil, fmt.Errorf("closest-node with %d replicas: %w", n, err)
		}
		st := outcome.Stats()
		out = append(out, CoveragePoint{
			Replicas:     n,
			MeanCRPTopK:  st.MeanCRPTopK,
			MeanOptimal:  st.MeanOptimal,
			FracNoSignal: st.FracNoSignal,
		})
	}
	return out, nil
}

// CenterAblationRow compares cluster quality for one center-selection
// policy.
type CenterAblationRow struct {
	Label       string
	Summary     crp.Summary
	GoodBuckets []int
}

// RunCenterAblation compares SMF's strongest-mappings-first center selection
// against choosing the same number of centers uniformly at random.
func (s *World) RunCenterAblation(cfg ClusteringConfig) ([]CenterAblationRow, error) {
	cfg.setDefaults()
	nodes := s.Clients[:cfg.NumNodes]
	evalAt := cfg.Schedule.End() + 1
	dist := s.clusterDistance(nodes, evalAt)
	maps, err := s.CollectRatioMaps(nodes, cfg.Schedule)
	if err != nil {
		return nil, err
	}
	crpNodes := make([]crp.Node, 0, len(nodes))
	for _, id := range nodes {
		crpNodes = append(crpNodes, crp.Node{ID: s.NodeID(id), Map: maps[id]})
	}

	smfClusters, err := crp.ClusterSMF(crpNodes, crp.ClusterConfig{
		Threshold: cfg.FocusThreshold, SecondPass: cfg.SecondPass, Seed: s.Params.Seed,
	})
	if err != nil {
		return nil, err
	}
	smfRow, err := s.analyzeClusters("SMF centers", smfClusters, len(nodes), dist, cfg.MaxDiameterMs)
	if err != nil {
		return nil, err
	}

	// Random centers: same center count as SMF's multi-node clusters.
	numCenters := 0
	for _, c := range smfClusters {
		if c.Size() >= 2 {
			numCenters++
		}
	}
	randClusters := clusterRandomCenters(crpNodes, numCenters, cfg.FocusThreshold, s.Params.Seed)
	randRow, err := s.analyzeClusters("random centers", randClusters, len(nodes), dist, cfg.MaxDiameterMs)
	if err != nil {
		return nil, err
	}

	return []CenterAblationRow{
		{Label: smfRow.Label, Summary: smfRow.Summary, GoodBuckets: smfRow.GoodBuckets},
		{Label: randRow.Label, Summary: randRow.Summary, GoodBuckets: randRow.GoodBuckets},
	}, nil
}

// clusterRandomCenters assigns nodes to k uniformly chosen centers with the
// same similarity-threshold rule as SMF's assignment pass.
func clusterRandomCenters(nodes []crp.Node, k int, threshold float64, seed int64) []crp.Cluster {
	if k <= 0 || len(nodes) == 0 {
		var out []crp.Cluster
		for _, n := range nodes {
			out = append(out, crp.Cluster{Center: n.ID, Members: []crp.NodeID{n.ID}})
		}
		return out
	}
	sorted := make([]crp.Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })

	rng := rand.New(rand.NewPCG(uint64(seed), 0x72616e64))
	perm := rng.Perm(len(sorted))
	if k > len(sorted) {
		k = len(sorted)
	}
	centers := make([]crp.Node, k)
	isCenter := make(map[crp.NodeID]bool, k)
	for i := 0; i < k; i++ {
		centers[i] = sorted[perm[i]]
		isCenter[centers[i].ID] = true
	}
	clusters := make(map[crp.NodeID]*crp.Cluster, k)
	for _, c := range centers {
		clusters[c.ID] = &crp.Cluster{Center: c.ID, Members: []crp.NodeID{c.ID}}
	}
	var out []crp.Cluster
	for _, n := range sorted {
		if isCenter[n.ID] {
			continue
		}
		var bestC crp.NodeID
		bestSim := -1.0
		for _, c := range centers {
			if sim := crp.CosineSimilarity(n.Map, c.Map); sim > bestSim {
				bestC, bestSim = c.ID, sim
			}
		}
		if bestSim >= threshold && bestSim > 0 {
			clusters[bestC].Members = append(clusters[bestC].Members, n.ID)
		} else {
			out = append(out, crp.Cluster{Center: n.ID, Members: []crp.NodeID{n.ID}})
		}
	}
	for _, c := range centers {
		out = append(out, *clusters[c.ID])
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Members) != len(out[j].Members) {
			return len(out[i].Members) > len(out[j].Members)
		}
		return out[i].Center < out[j].Center
	})
	return out
}

// BaselineRow reports mean selected-server RTT for one selection system.
type BaselineRow struct {
	Label   string
	MeanRTT float64
}

// RunBaselineComparison compares every selection approach in the repository
// on the same scenario: CRP Top-1/Top-K, Meridian, Vivaldi coordinates, GNP
// landmark coordinates, Ratnasamy-style landmark binning, a uniformly
// random pick, and the true optimum.
func (s *PaperWorld) RunBaselineComparison(cfg ClosestNodeConfig) ([]BaselineRow, error) {
	cfg.setDefaults()
	outcome, err := s.RunClosestNode(cfg)
	if err != nil {
		return nil, err
	}
	st := outcome.Stats()

	hosts := make([]netsim.HostID, 0, len(s.Clients)+len(s.Candidates))
	hosts = append(hosts, s.Clients...)
	hosts = append(hosts, s.Candidates...)
	sys, err := vivaldi.Embed(vivaldi.Config{Topo: s.Topo, Hosts: hosts, Seed: s.Params.Seed})
	if err != nil {
		return nil, err
	}

	// Landmark binning, the relative-positioning prior work the paper
	// contrasts with: every participant probes 10 landmarks directly.
	landmarks, err := binning.ChooseLandmarks(s.Topo, s.Candidates, 10)
	if err != nil {
		return nil, err
	}
	bins, err := binning.Measure(binning.Config{Topo: s.Topo, Landmarks: landmarks}, hosts, 0)
	if err != nil {
		return nil, err
	}

	// GNP, the landmark-based absolute embedding ([30]).
	gnpSys, err := gnp.New(gnp.Config{Topo: s.Topo, Landmarks: landmarks, Seed: s.Params.Seed})
	if err != nil {
		return nil, err
	}
	if err := gnpSys.Embed(hosts); err != nil {
		return nil, err
	}

	evalAt := outcome.EvalAt
	rng := rand.New(rand.NewPCG(uint64(s.Params.Seed), 0x62617365))
	var vivaldiSum, binningSum, gnpSum, randomSum float64
	for _, client := range s.Clients {
		pick, err := sys.SelectClosest(client, s.Candidates)
		if err != nil {
			return nil, err
		}
		vivaldiSum += s.TruthRTTMs(client, pick, evalAt)
		binPick, err := bins.SelectClosest(client, s.Candidates)
		if err != nil {
			return nil, err
		}
		binningSum += s.TruthRTTMs(client, binPick, evalAt)
		gnpPick, err := gnpSys.SelectClosest(client, s.Candidates)
		if err != nil {
			return nil, err
		}
		gnpSum += s.TruthRTTMs(client, gnpPick, evalAt)
		randomSum += s.TruthRTTMs(client, s.Candidates[rng.IntN(len(s.Candidates))], evalAt)
	}
	n := float64(len(s.Clients))

	return []BaselineRow{
		{Label: "optimal", MeanRTT: st.MeanOptimal},
		{Label: fmt.Sprintf("crp top%d", outcome.Config.TopK), MeanRTT: st.MeanCRPTopK},
		{Label: "crp top1", MeanRTT: st.MeanCRPTop1},
		{Label: "meridian", MeanRTT: st.MeanMeridian},
		{Label: "binning", MeanRTT: binningSum / n},
		{Label: "gnp", MeanRTT: gnpSum / n},
		{Label: "vivaldi", MeanRTT: vivaldiSum / n},
		{Label: "random", MeanRTT: randomSum / n},
	}, nil
}
