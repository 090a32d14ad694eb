package crp

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Service-level instruments, registered in the default obs registry and
// shared by every Service in the process: mutation/query volumes, the
// effectiveness of the stitched candidate snapshot, per-shard rebuild
// activity, and query latency histograms so the daemon's stats op and the
// churn benchmark can report service-layer percentiles, not just
// daemon-layer ones. Incrementing a counter is one atomic add, so the hot
// paths stay allocation-free.
var svcMetrics = struct {
	observes         *obs.Counter
	queries          *obs.Counter // point queries: ratio map, similarity, ranking
	clusterQueries   *obs.Counter // queries that run a full SMF pass
	snapshotHits     *obs.Counter // stitched snapshot served from cache
	snapshotRebuilds *obs.Counter // stitched snapshot reassembled after a mutation
	shardRebuilds    *obs.Counter // per-shard sub-snapshot recompiles
	scanScored       *obs.Counter // nodes an all-nodes query scored (its replica union)
	shardWidth       *obs.Gauge   // shard count of the most recent store
	queryLatency     *obs.Histogram
	clusterLatency   *obs.Histogram
}{
	observes:         obs.Default().Counter("crp.service.observes"),
	queries:          obs.Default().Counter("crp.service.queries"),
	clusterQueries:   obs.Default().Counter("crp.service.cluster_queries"),
	snapshotHits:     obs.Default().Counter("crp.service.snapshot.hits"),
	snapshotRebuilds: obs.Default().Counter("crp.service.snapshot.rebuilds"),
	shardRebuilds:    obs.Default().Counter("crp.service.snapshot.shard_rebuilds"),
	scanScored:       obs.Default().Counter("crp.service.scan.scored"),
	shardWidth:       obs.Default().Gauge("crp.service.shards"),
	queryLatency:     obs.Default().Histogram("crp.service.latency.query", nil),
	clusterLatency:   obs.Default().Histogram("crp.service.latency.cluster", nil),
}

// Service is the stand-alone CRP positioning service sketched in the paper's
// §III-B: it maintains redirection trackers for many nodes and answers the
// location queries of §IV — closest-node selection and the three clustering
// queries (peers in my cluster; a full cluster assignment; n nodes in
// distinct clusters for failure independence). Service is safe for
// concurrent use and runs no background goroutines.
//
// Storage is a sharded tracker store (see store.go): an Observe invalidates
// only the compiled sub-snapshot of its own shard, so under continuous
// ingestion the all-nodes query path repays O(N/S) per mutation
// instead of recompiling the full candidate set.
type Service struct {
	store *store
	// agg, when non-nil, is the prefix/LDNS aggregation plane (aggregate.go):
	// keyed clients' probes collapse into per-prefix ratio maps and their
	// queries resolve per-client state first, then the aggregate. Set once by
	// EnableAggregation before the service takes traffic.
	agg *aggregator
	// fus, when non-nil, is the fused multi-CDN similarity kernel
	// (namespace.go): every similarity the query surface computes mixes
	// per-namespace cosines by coverage weight instead of running one cosine
	// across namespaces. Set once by EnableFusion before the service takes
	// traffic.
	fus *fusionKernel
	// nsObs tracks per-namespace observe volume when fusion is enabled.
	nsObs *nsObserves
	// obsSeq counts accepted probes for this service instance; see
	// observeSeq.
	obsSeq atomic.Uint64
}

// ErrUnknownNode is returned for queries about nodes the service has no
// observations for.
var ErrUnknownNode = errors.New("crp: unknown node")

// NewService returns an empty service. The tracker options are applied to
// every node's tracker (e.g., WithWindow(10) to adopt the paper's
// recommended 10-probe window).
func NewService(opts ...TrackerOption) *Service {
	return NewServiceWithStore(StoreConfig{}, opts...)
}

// NewServiceWithStore returns an empty service with an explicitly shaped
// tracker store. It exists for benchmarks and tests (e.g. the churn
// benchmark's single-snapshot baseline); production callers should use
// NewService.
func NewServiceWithStore(cfg StoreConfig, opts ...TrackerOption) *Service {
	return &Service{store: newStore(cfg, opts)}
}

// Observe records a redirection probe for node: the replica servers one CDN
// lookup returned at time at. Unknown nodes are added automatically. A probe
// with no replicas carries no redirection and is ignored entirely: it creates
// no node, publishes no mutation and counts nowhere.
//
// With aggregation enabled, a keyed client with no live store record is the
// aggregation plane's (aggregate.go): its probes go into its prefix group,
// which is neither replicated nor checkpointed, until a demotion writes its
// store record. Every other probe lands in the node's store record.
func (s *Service) Observe(node NodeID, at time.Time, replicas ...ReplicaID) error {
	if node == "" {
		return errors.New("crp: empty node ID")
	}
	if len(replicas) == 0 {
		return nil
	}
	if s.agg == nil || !s.agg.observe(node, at, replicas) {
		s.store.observe(node, func(t *Tracker) { t.Observe(at, replicas...) })
		s.nsObs.bump(replicas)
	}
	svcMetrics.observes.Inc()
	s.obsSeq.Add(1)
	return nil
}

// observeSeq counts this service's accepted probes (svcMetrics.observes is
// process-wide and shared by every Service). The drift tap stamps it into
// each frame so a detector can tell "map unchanged while probes kept
// landing" (stale) apart from "no traffic at all".
func (s *Service) observeSeq() uint64 { return s.obsSeq.Load() }

// simFn returns the vector-similarity kernel the query surface runs on:
// the fused multi-CDN kernel when fusion is enabled, the plain cosine
// otherwise.
func (s *Service) simFn() simFunc {
	if s.fus != nil {
		return s.fus.cosine
	}
	return plainCosine
}

// EnableFusion installs the fused multi-CDN similarity kernel: Similarity,
// ClosestTo, TopK and the SMF clustering queries score node pairs by mixing
// per-namespace cosines under coverage weighting (see FusionConfig) instead
// of one cosine across all namespaces. Call it once, before the service
// takes traffic. A service holding only one namespace answers every query
// bit-identically with fusion on or off — the multi-CDN path is strictly
// additive.
func (s *Service) EnableFusion(cfg FusionConfig) error {
	if s.fus != nil {
		return errors.New("crp: fusion already enabled")
	}
	k, err := newFusionKernel(cfg)
	if err != nil {
		return err
	}
	s.fus = k
	s.nsObs = newNSObserves()
	return nil
}

// Nodes returns the known node IDs in sorted order.
func (s *Service) Nodes() []NodeID {
	return s.store.nodeIDs()
}

// RatioMap returns the node's current ratio map. For an aggregated client it
// is the client's group's served (quantized) map.
func (s *Service) RatioMap(node NodeID) (RatioMap, error) {
	defer timeQuery()()
	svcMetrics.queries.Inc()
	v, err := s.clientVec(node)
	if err != nil {
		return nil, err
	}
	return v.ratioMap(), nil
}

// Similarity returns the cosine similarity between two nodes' current ratio
// maps, computed on their cached compiled vectors.
func (s *Service) Similarity(a, b NodeID) (float64, error) {
	return s.pair(s.simFn(), a, b)
}

// pair is the one entry behind Similarity and SimilarityIn: sim over the two
// nodes' compiled vectors.
func (s *Service) pair(sim simFunc, a, b NodeID) (float64, error) {
	defer timeQuery()()
	svcMetrics.queries.Inc()
	va, err := s.clientVec(a)
	if err != nil {
		return 0, err
	}
	vb, err := s.clientVec(b)
	if err != nil {
		return 0, err
	}
	return sim(va, vb), nil
}

// resolve is the one node → vector lookup: the compiled ratio vector of a
// known node and whether its own tracker supplied it. A live store record
// wins (for a keyed client it is what makes the client per-client);
// otherwise a keyed client resolves through its aggregate.
func (s *Service) resolve(node NodeID) (v ratioVec, tracked bool, err error) {
	if tr, ok := s.store.get(node); ok {
		return tr.vec(), true, nil
	}
	if s.agg != nil {
		if v, ok := s.agg.vecFor(node); ok {
			return v, false, nil
		}
	}
	return ratioVec{}, false, fmt.Errorf("%w: %q", ErrUnknownNode, node)
}

// clientVec resolves a query's subject and keeps the hit/fallback accounting,
// which only sees keyed clients: the fallback ratio measures how often
// aggregation failed to absorb a client it claimed, not how much non-client
// (candidate) traffic the service carries.
func (s *Service) clientVec(node NodeID) (ratioVec, error) {
	v, tracked, err := s.resolve(node)
	if err == nil && (!tracked || (s.agg != nil && s.agg.keyed(node))) {
		noteResolution(tracked)
	}
	return v, err
}

// candidateVecs appends to sc.vecs the compiled ratio vectors of an explicit
// candidate list (an empty non-nil list means "no candidates"), skipping
// repeated IDs through sc.seen. The nil ("all nodes") case never reaches this path — it is
// served by the store's stitched snapshot; see rank. Aggregated clients are
// valid candidates too.
func (s *Service) candidateVecs(sc *queryBuf, nodes []NodeID) error {
	for _, id := range nodes {
		if _, dup := sc.seen[id]; dup {
			continue
		}
		sc.seen[id] = struct{}{}
		v, _, err := s.resolve(id)
		if err != nil {
			return err
		}
		sc.vecs = append(sc.vecs, nodeVec{id: id, vec: v})
	}
	return nil
}

// ClosestTo ranks the candidate nodes by similarity to client and returns
// the best, with ok=false when CRP has no signal for any candidate.
//
// A nil candidates slice ranks client against every known node; an empty
// non-nil slice means "no candidates" and always reports ok=false. The
// client itself is never considered a candidate.
func (s *Service) ClosestTo(client NodeID, candidates []NodeID) (Scored, bool, error) {
	top, err := s.rank(s.simFn(), client, candidates, 1)
	best, ok := bestOf(top)
	return best, ok, err
}

// TopK returns the k candidates most similar to client.
//
// A nil candidates slice ranks client against every known node; an empty
// non-nil slice means "no candidates" and yields no results. The client
// itself is never considered a candidate.
func (s *Service) TopK(client NodeID, candidates []NodeID, k int) ([]Scored, error) {
	return s.rank(s.simFn(), client, candidates, k)
}

// rank is the one entry behind ClosestTo, TopK and their namespace-scoped
// variants: the k candidates most similar to client under sim. Nil
// candidates are served from the store's stitched snapshot, scoring only the
// nodes that share a replica with client (topAll); an explicit list is
// resolved to its vectors and scanned in full.
func (s *Service) rank(sim simFunc, client NodeID, candidates []NodeID, k int) ([]Scored, error) {
	defer timeQuery()()
	svcMetrics.queries.Inc()
	cv, err := s.clientVec(client)
	if err != nil {
		return nil, err
	}
	if candidates == nil {
		return topAll(cv, s.store.snapshot(), k, client, sim), nil
	}
	sc := queryScratch.Get().(*queryBuf)
	defer sc.put()
	if err := s.candidateVecs(sc, candidates); err != nil {
		return nil, err
	}
	return topSnap(cv, sc.vecs, k, client, sim), nil
}

// ClusterAll clusters every known node with SMF (§V-B, see clusterVecs)
// under cfg (§IV-B query 2: "given a set of nodes, map each node to a
// cluster"). It runs directly on the stitched compiled snapshot — no
// per-node ratio-map clones, no recompilation — under the service's
// similarity kernel.
func (s *Service) ClusterAll(cfg ClusterConfig) ([]Cluster, error) {
	defer timeCluster()()
	svcMetrics.clusterQueries.Inc()
	return clusterVecs(s.store.snapshot().flatten(), cfg, s.simFn())
}

// SameCluster returns the other members of node's cluster under SMF at the
// given config (§IV-B query 1: "given a node identifier, find the other
// nodes that belong to the same cluster" — e.g., BitTorrent peers on low-RTT
// paths).
//
// SMF never sees an aggregated client (clustering runs on the per-client
// snapshot), so such a client is assigned to the cluster of the tracked node
// most similar to its aggregate vector, and that cluster's members are its
// peers. No signal among the tracked nodes means no assignment — an empty
// result, like a tracked singleton's.
func (s *Service) SameCluster(node NodeID, cfg ClusterConfig) ([]NodeID, error) {
	v, tracked, err := s.resolve(node)
	if err != nil {
		return nil, err
	}
	anchor := node
	if !tracked {
		noteResolution(false)
		best, ok := bestOf(topAll(v, s.store.snapshot(), 1, node, s.simFn()))
		if !ok {
			return nil, nil
		}
		anchor = best.Node
	}
	clusters, err := s.ClusterAll(cfg)
	if err != nil {
		return nil, err
	}
	for _, c := range clusters {
		if slices.Contains(c.Members, anchor) {
			// An aggregated client is not itself a member, so the filter
			// only matters for a tracked node — or on the off chance an ID
			// collides.
			return slices.DeleteFunc(slices.Clone(c.Members), func(o NodeID) bool { return o == node }), nil
		}
	}
	return nil, nil
}

// DistinctClusters returns up to n nodes drawn from different clusters
// (§IV-B query 3: peers whose network faults are uncorrelated with high
// probability). Larger clusters contribute first, and each cluster's center
// represents it.
func (s *Service) DistinctClusters(n int, cfg ClusterConfig) ([]NodeID, error) {
	if n <= 0 {
		return nil, nil
	}
	clusters, err := s.ClusterAll(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]NodeID, 0, min(n, len(clusters)))
	for _, c := range clusters {
		out = append(out, c.Center)
		if len(out) == n {
			break
		}
	}
	return out, nil
}

// timeQuery starts a service-layer latency sample for a point query; the
// returned func records it. Usage: defer timeQuery()().
func timeQuery() func() {
	start := time.Now()
	return func() { svcMetrics.queryLatency.ObserveDuration(time.Since(start)) }
}

// timeCluster is timeQuery for the SMF clustering queries, which live on a
// different latency scale and get their own histogram.
func timeCluster() func() {
	start := time.Now()
	return func() { svcMetrics.clusterLatency.ObserveDuration(time.Since(start)) }
}
