package experiment

import (
	"bytes"
	"fmt"
	"maps"
	"time"

	"repro/crp"
	"repro/internal/cdn"
	"repro/internal/netsim"
)

// The fusion experiment evaluates the multi-CDN substrate: two independent
// CDN deployments (a cdn.Fleet) redirect the same population, every
// observation carries its CDN namespace ("ns!replica"), and the fused
// similarity kernel mixes per-CDN cosines under coverage weighting. The
// evaluation sweeps two axes — the secondary CDN's replica density and the
// clients' probe budget (coverage sparsity) — and in every cell compares the
// fused service's closest-node rank and SMF clustering quality against each
// single-CDN path on its own.

// Fleet member namespaces used throughout the fusion evaluation.
const (
	FusionPrimaryNS   = "cdnA"
	FusionSecondaryNS = "cdnB"
)

// FusionParams sizes the fusion evaluation.
type FusionParams struct {
	Seed          int64
	NumClients    int
	NumCandidates int
	NumReplicas   int
	// Interval is the probe cadence; RichProbes and SparseProbes are the two
	// probe budgets of the coverage axis.
	Interval     time.Duration
	RichProbes   int
	SparseProbes int
	// DenseFraction and SparseFraction are the secondary CDN's
	// ReplicaFraction settings on the replica-density axis. The primary CDN
	// always deploys on every replica host.
	DenseFraction  float64
	SparseFraction float64
	// SecondaryLoadScale makes the secondary CDN's mapping noisier than the
	// primary's, so the two signals differ in quality as real CDNs do.
	SecondaryLoadScale float64
	// TopK is the recommendation width scored in the rank metric.
	TopK int
}

// DefaultFusionParams returns the full-scale configuration.
func DefaultFusionParams() FusionParams {
	return FusionParams{
		Seed:               1,
		NumClients:         150,
		NumCandidates:      120,
		NumReplicas:        500,
		Interval:           10 * time.Minute,
		RichProbes:         36,
		SparseProbes:       6,
		DenseFraction:      1.0,
		SparseFraction:     0.35,
		SecondaryLoadScale: 1.5,
		TopK:               5,
	}
}

func (p *FusionParams) setDefaults() {
	d := DefaultFusionParams()
	if p.NumClients <= 0 {
		p.NumClients = d.NumClients
	}
	if p.NumCandidates <= 0 {
		p.NumCandidates = d.NumCandidates
	}
	if p.NumReplicas <= 0 {
		p.NumReplicas = d.NumReplicas
	}
	if p.Interval <= 0 {
		p.Interval = d.Interval
	}
	if p.RichProbes <= 0 {
		p.RichProbes = d.RichProbes
	}
	if p.SparseProbes <= 0 {
		p.SparseProbes = d.SparseProbes
	}
	if p.DenseFraction <= 0 {
		p.DenseFraction = d.DenseFraction
	}
	if p.SparseFraction <= 0 {
		p.SparseFraction = d.SparseFraction
	}
	if p.SecondaryLoadScale <= 0 {
		p.SecondaryLoadScale = d.SecondaryLoadScale
	}
	if p.TopK <= 0 {
		p.TopK = d.TopK
	}
}

// FusionCell is one point of the density × coverage grid. All fields are
// deterministic in the seed (no timings), so same-seed reruns byte-compare.
type FusionCell struct {
	// Density names the secondary CDN's deployment ("dense" or "sparse").
	// Coverage names the probe regime: "rich" resolves every CDN at every
	// probe step; "sparse" has a smaller probe budget AND each step observes
	// only one deterministically drawn CDN (passive collection), so each
	// single-CDN path sees roughly half the already-thin signal.
	Density           string  `json:"density"`
	Coverage          string  `json:"coverage"`
	SecondaryFraction float64 `json:"secondary_fraction"`
	Probes            int     `json:"probes"`
	Clients           int     `json:"clients"`

	// Mean 0-based closest-node rank (position of the top-1 recommendation
	// in the true RTT ordering of all candidates; lower is better) for the
	// fused kernel and for each CDN queried alone.
	MeanRankFused float64            `json:"mean_rank_fused"`
	MeanRankNS    map[string]float64 `json:"mean_rank_ns"`
	// BestSingleNS is the single CDN with the lowest mean rank.
	BestSingleNS       string  `json:"best_single_ns"`
	MeanRankBestSingle float64 `json:"mean_rank_best_single"`

	// NoSignal counts clients the given path could not position at all
	// (no observations survived fallback filtering); such clients score the
	// expected rank of a blind guess.
	NoSignalFused int            `json:"no_signal_fused"`
	NoSignalNS    map[string]int `json:"no_signal_ns"`

	// SMF clustering quality over the candidate population: mean true
	// intra-cluster RTT across all member pairs (lower = tighter clusters),
	// with the pair and cluster counts for context.
	SMFIntraRTTFused   float64            `json:"smf_intra_rtt_fused"`
	SMFIntraPairsFused int                `json:"smf_intra_pairs_fused"`
	SMFClustersFused   int                `json:"smf_clusters_fused"`
	SMFIntraRTTNS      map[string]float64 `json:"smf_intra_rtt_ns"`
}

// FusionOutcome is the complete grid.
type FusionOutcome struct {
	Params FusionParams `json:"params"`
	Cells  []FusionCell `json:"cells"`
}

// world sizes the evaluation world the fusion parameters describe.
func (p FusionParams) world() WorldParams {
	return WorldParams{Seed: p.Seed, NumClients: p.NumClients, NumCandidates: p.NumCandidates, NumReplicas: p.NumReplicas}
}

// RunFusion evaluates fused multi-CDN positioning against the single-CDN
// paths across the density × coverage grid.
func RunFusion(p FusionParams) (*FusionOutcome, error) {
	p.setDefaults()
	out := &FusionOutcome{Params: p}
	for _, density := range []struct {
		name string
		frac float64
	}{{"dense", p.DenseFraction}, {"sparse", p.SparseFraction}} {
		w, err := NewWorld(p.world(),
			cdn.Config{Namespace: FusionPrimaryNS},
			cdn.Config{Namespace: FusionSecondaryNS, ReplicaFraction: density.frac, LoadScale: p.SecondaryLoadScale})
		if err != nil {
			return nil, fmt.Errorf("fusion world (%s): %w", density.name, err)
		}
		for _, coverage := range []struct {
			name   string
			probes int
			split  bool
		}{{"rich", p.RichProbes, false}, {"sparse", p.SparseProbes, true}} {
			cell, err := runFusionCell(p, w, coverage.probes, coverage.split)
			if err != nil {
				return nil, fmt.Errorf("fusion cell %s/%s: %w", density.name, coverage.name, err)
			}
			cell.Density = density.name
			cell.Coverage = coverage.name
			cell.SecondaryFraction = density.frac
			out.Cells = append(out.Cells, *cell)
		}
	}
	return out, nil
}

// fusionServices is the set of positioning services one cell compares: the
// fused service holds every CDN's qualified observations under the fusion
// kernel; each per-namespace service holds only its own CDN's observations
// (the single-CDN path). The *Cand variants hold the candidate population
// only, for the SMF clustering metric.
type fusionServices struct {
	fused     *crp.Service
	fusedCand *crp.Service
	byNS      map[string]*crp.Service
	byNSCand  map[string]*crp.Service
}

func newFusionServices(namespaces []string) (*fusionServices, error) {
	fs := &fusionServices{
		fused:     crp.NewService(),
		fusedCand: crp.NewService(),
		byNS:      make(map[string]*crp.Service, len(namespaces)),
		byNSCand:  make(map[string]*crp.Service, len(namespaces)),
	}
	if err := fs.fused.EnableFusion(crp.FusionConfig{}); err != nil {
		return nil, err
	}
	if err := fs.fusedCand.EnableFusion(crp.FusionConfig{}); err != nil {
		return nil, err
	}
	for _, ns := range namespaces {
		fs.byNS[ns] = crp.NewService()
		fs.byNSCand[ns] = crp.NewService()
	}
	return fs, nil
}

// domFusionPick seeds the sparse-coverage draw of which CDN a probe step
// observes (disjoint from netsim's and faults' hash domains).
const domFusionPick uint64 = 0xF0_51_0001

// collect probes the fleet on behalf of every client and candidate over the
// schedule, feeding the fused and per-CDN services. With split set (the
// sparse-coverage regime), each probe step observes exactly one
// deterministically drawn fleet member instead of all of them — modelling
// passive collection, where a step sees whichever CDN the client's
// applications happened to touch. The fused service then holds the union of
// complementary half-signals no single-CDN path sees.
func (fs *fusionServices) collect(w *World, probes int, interval time.Duration, split bool) error {
	members := uint64(len(w.Fleet.Members()))
	feed := func(host netsim.HostID, candidate bool) error {
		node := w.NodeID(host)
		for i := 0; i < probes; i++ {
			pick := AllMembers
			if split {
				pick = int(netsim.Mix(uint64(w.Params.Seed), domFusionPick, uint64(host), uint64(i)) % members)
			}
			err := w.Probe(host, time.Duration(i)*interval, pick, func(l Lookup) error {
				svcs := []*crp.Service{fs.fused, fs.byNS[l.NS]}
				if candidate {
					svcs = append(svcs, fs.fusedCand, fs.byNSCand[l.NS])
				}
				for _, svc := range svcs {
					if err := svc.Observe(node, l.At, l.IDs...); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	for _, host := range w.Clients {
		if err := feed(host, false); err != nil {
			return err
		}
	}
	for _, host := range w.Candidates {
		if err := feed(host, true); err != nil {
			return err
		}
	}
	return nil
}

// runFusionCell collects one (fleet, schedule) cell and scores it.
func runFusionCell(p FusionParams, w *World, probes int, split bool) (*FusionCell, error) {
	namespaces := w.Fleet.Namespaces()
	fs, err := newFusionServices(namespaces)
	if err != nil {
		return nil, err
	}
	clients, candidates := w.Clients, w.Candidates
	candIDs := w.nodeIDs(candidates)
	if err := fs.collect(w, probes, p.Interval, split); err != nil {
		return nil, err
	}
	evalAt := time.Duration(probes)*p.Interval + time.Minute

	cell := &FusionCell{
		Probes:        probes,
		Clients:       len(clients),
		MeanRankNS:    make(map[string]float64, len(namespaces)),
		NoSignalNS:    make(map[string]int, len(namespaces)),
		SMFIntraRTTNS: make(map[string]float64, len(namespaces)),
	}

	// Each service is queried over the candidates it actually knows: under
	// split coverage a candidate can draw zero probe steps for one CDN, and
	// a CDN cannot recommend a node it has never seen redirect (ClosestTo
	// rejects unknown candidates outright). Ranks are still scored against
	// the full true ordering, so missing candidates cost accuracy naturally.
	fusedCands := knownCandidates(fs.fused, candIDs)
	nsCands := make(map[string][]crp.NodeID, len(namespaces))
	for _, ns := range namespaces {
		nsCands[ns] = knownCandidates(fs.byNS[ns], candIDs)
	}

	// Closest-node ranks. Clients a path cannot position score the expected
	// rank of a blind guess, (n-1)/2, so absent signal is penalized rather
	// than skipped (skipping would reward a CDN for covering fewer clients).
	blind := float64(len(candidates)-1) / 2
	sumFused := 0.0
	sumNS := make(map[string]float64, len(namespaces))
	for _, client := range clients {
		order := w.TruthOrder(client, evalAt)
		clientID := w.NodeID(client)

		if r, ok := fusionRank(w, fs.fused, clientID, fusedCands, order); ok {
			sumFused += r
		} else {
			sumFused += blind
			cell.NoSignalFused++
		}
		for _, ns := range namespaces {
			if r, ok := fusionRank(w, fs.byNS[ns], clientID, nsCands[ns], order); ok {
				sumNS[ns] += r
			} else {
				sumNS[ns] += blind
				cell.NoSignalNS[ns]++
			}
		}
	}
	n := float64(len(clients))
	cell.MeanRankFused = sumFused / n
	for _, ns := range namespaces {
		cell.MeanRankNS[ns] = sumNS[ns] / n
	}
	cell.BestSingleNS = namespaces[0]
	cell.MeanRankBestSingle = cell.MeanRankNS[namespaces[0]]
	for _, ns := range namespaces[1:] {
		if cell.MeanRankNS[ns] < cell.MeanRankBestSingle {
			cell.BestSingleNS = ns
			cell.MeanRankBestSingle = cell.MeanRankNS[ns]
		}
	}

	// SMF clustering quality over the candidates.
	ccfg := crp.ClusterConfig{Threshold: crp.DefaultThreshold}
	rtt, pairs, clusters, err := fusionSMF(w, fs.fusedCand, evalAt, ccfg)
	if err != nil {
		return nil, err
	}
	cell.SMFIntraRTTFused, cell.SMFIntraPairsFused, cell.SMFClustersFused = rtt, pairs, clusters
	for _, ns := range namespaces {
		rtt, _, _, err := fusionSMF(w, fs.byNSCand[ns], evalAt, ccfg)
		if err != nil {
			return nil, err
		}
		cell.SMFIntraRTTNS[ns] = rtt
	}
	return cell, nil
}

// knownCandidates filters the candidate list to the nodes the service holds
// a tracker for, preserving order.
func knownCandidates(svc *crp.Service, candidates []crp.NodeID) []crp.NodeID {
	known := make(map[crp.NodeID]bool)
	for _, n := range svc.Nodes() {
		known[n] = true
	}
	out := make([]crp.NodeID, 0, len(candidates))
	for _, c := range candidates {
		if known[c] {
			out = append(out, c)
		}
	}
	return out
}

// fusionRank returns the 0-based true-RTT rank of the service's top-1
// recommendation for the client, or ok=false when the service cannot
// position the client (unknown node or zero similarity everywhere).
func fusionRank(w *World, svc *crp.Service, client crp.NodeID, candidates []crp.NodeID, order *TruthOrder) (float64, bool) {
	best, ok, err := svc.ClosestTo(client, candidates)
	if err != nil || !ok || best.Similarity <= 0 {
		return 0, false
	}
	host, found := w.HostOf(best.Node)
	if !found {
		return 0, false
	}
	return float64(order.Rank(host)), true
}

// fusionSMF clusters the service's whole population with SMF and returns the
// mean true intra-cluster RTT across member pairs, the pair count and the
// cluster count.
func fusionSMF(w *World, svc *crp.Service, evalAt time.Duration, cfg crp.ClusterConfig) (meanRTT float64, pairs, clusters int, err error) {
	cls, err := svc.ClusterAll(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	sum := 0.0
	for _, c := range cls {
		for i := 0; i < len(c.Members); i++ {
			hi, ok := w.HostOf(c.Members[i])
			if !ok {
				continue
			}
			for j := i + 1; j < len(c.Members); j++ {
				hj, ok := w.HostOf(c.Members[j])
				if !ok {
					continue
				}
				sum += w.TruthRTTMs(hi, hj, evalAt)
				pairs++
			}
		}
	}
	if pairs > 0 {
		meanRTT = sum / float64(pairs)
	}
	return meanRTT, pairs, len(cls), nil
}

// FusionIdentityCheck verifies the back-compat pin at experiment scale: a
// service holding one unnamespaced CDN's observations answers bit-identically
// with the fusion kernel enabled or disabled — ratio maps, top-K rankings,
// snapshot bytes and shard digests all compare equal. It returns the first
// divergence found, or nil.
func FusionIdentityCheck(seed int64, numClients, numCandidates, numReplicas, probes int) error {
	p := FusionParams{Seed: seed, NumClients: numClients, NumCandidates: numCandidates, NumReplicas: numReplicas}
	p.setDefaults()
	w, err := NewWorld(p.world())
	if err != nil {
		return err
	}
	plain := crp.NewService()
	fused := crp.NewService()
	if err := fused.EnableFusion(crp.FusionConfig{}); err != nil {
		return err
	}

	hosts := append(append([]netsim.HostID(nil), w.Clients...), w.Candidates...)
	if err := w.feed(hosts, ProbeSchedule{Interval: p.Interval, Probes: probes}, plain, fused); err != nil {
		return err
	}

	candIDs := w.nodeIDs(w.Candidates)
	for _, host := range hosts {
		node := w.NodeID(host)
		pm, perr := plain.RatioMap(node)
		fm, ferr := fused.RatioMap(node)
		if (perr == nil) != (ferr == nil) {
			return fmt.Errorf("fusion identity: RatioMap(%s) error mismatch: %v vs %v", node, perr, ferr)
		}
		if !maps.Equal(pm, fm) {
			return fmt.Errorf("fusion identity: RatioMap(%s) diverges", node)
		}
		pk, perr := plain.TopK(node, candIDs, 5)
		fk, ferr := fused.TopK(node, candIDs, 5)
		if (perr == nil) != (ferr == nil) {
			return fmt.Errorf("fusion identity: TopK(%s) error mismatch: %v vs %v", node, perr, ferr)
		}
		if len(pk) != len(fk) {
			return fmt.Errorf("fusion identity: TopK(%s) length diverges: %d vs %d", node, len(pk), len(fk))
		}
		for i := range pk {
			if pk[i] != fk[i] {
				return fmt.Errorf("fusion identity: TopK(%s)[%d] diverges: %+v vs %+v", node, i, pk[i], fk[i])
			}
		}
	}

	var pb, fb bytes.Buffer
	if err := plain.WriteSnapshot(&pb); err != nil {
		return err
	}
	if err := fused.WriteSnapshot(&fb); err != nil {
		return err
	}
	if !bytes.Equal(pb.Bytes(), fb.Bytes()) {
		return fmt.Errorf("fusion identity: snapshot bytes diverge (%d vs %d bytes)", pb.Len(), fb.Len())
	}
	pd, fd := plain.ShardDigests(), fused.ShardDigests()
	if len(pd) != len(fd) {
		return fmt.Errorf("fusion identity: shard digest widths diverge: %d vs %d", len(pd), len(fd))
	}
	for i := range pd {
		if pd[i] != fd[i] {
			return fmt.Errorf("fusion identity: shard %d digest diverges", i)
		}
	}
	return nil
}

// RenderFusion formats the grid as the human-readable table crpbench prints.
func RenderFusion(o *FusionOutcome) string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "Fusion — fused multi-CDN vs single-CDN positioning (mean top-1 rank, lower is better)\n")
	fmt.Fprintf(&buf, "%-8s %-9s %7s  %12s %12s %12s  %6s  %14s %10s\n",
		"density", "coverage", "probes", "fused", FusionPrimaryNS, FusionSecondaryNS, "best", "smf-rtt fused", "smf-pairs")
	for _, c := range o.Cells {
		fmt.Fprintf(&buf, "%-8s %-9s %7d  %12.2f %12.2f %12.2f  %6s  %14.2f %10d\n",
			c.Density, c.Coverage, c.Probes,
			c.MeanRankFused, c.MeanRankNS[FusionPrimaryNS], c.MeanRankNS[FusionSecondaryNS],
			c.BestSingleNS, c.SMFIntraRTTFused, c.SMFIntraPairsFused)
	}
	return buf.String()
}
