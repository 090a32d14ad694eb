package crp

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Namespace-scoped Service surface: the per-CDN complement to the fused
// queries. A fused deployment still needs single-signal answers — operators
// compare the fused ranking against each CDN's own, the fusion benchmark is
// exactly that comparison.

// nsObserves tracks per-namespace observe volume. Each namespace is
// interned to a numeric index on first sight so its gauge name
// (crp.service.ns.NNN.observes) joins an all-digit middle-segment family
// that obs.SummarizeGaugeFamily can fold into count/sum/min/mean/max/p99 —
// the daemon's stats reply must not grow by one line per namespace.
type nsObserves struct {
	mu     sync.Mutex
	gauges map[Namespace]*obs.Gauge
}

func newNSObserves() *nsObserves {
	return &nsObserves{gauges: make(map[Namespace]*obs.Gauge)}
}

// bump counts one observe against the namespace of each probed replica.
// Nil receiver (fusion disabled) is a no-op, keeping the single-CDN observe
// path free of namespace work.
func (n *nsObserves) bump(replicas []ReplicaID) {
	if n == nil {
		return
	}
	n.mu.Lock()
	for _, r := range replicas {
		ns := NamespaceOf(r)
		g, ok := n.gauges[ns]
		if !ok {
			g = obs.Default().Gauge(fmt.Sprintf("crp.service.ns.%03d.observes", len(n.gauges)))
			// A long-lived key: ns is cut from r, which may share a
			// decoded list's backing.
			n.gauges[Namespace(strings.Clone(string(ns)))] = g
		}
		g.Inc()
	}
	n.mu.Unlock()
}

// nsSim returns the namespace-scoped similarity kernel for ns.
func nsSim(ns Namespace) simFunc {
	return func(a, b ratioVec) float64 { return cosineIn(a, b, ns) }
}

// RatioMapIn returns the sub-map of node's ratio map belonging to namespace
// ns, with qualified replica IDs preserved and mass NOT renormalized (the
// ns mass is the node's probe coverage of that CDN).
func (s *Service) RatioMapIn(ns Namespace, node NodeID) (RatioMap, error) {
	if err := ns.Valid(); err != nil {
		return nil, err
	}
	m, err := s.RatioMap(node)
	if err != nil {
		return nil, err
	}
	return m.NamespaceView(ns), nil
}

// SimilarityIn returns the cosine similarity of two nodes restricted to
// namespace ns: only that CDN's redirections contribute. On a service whose
// replicas all live in ns it is bit-identical to Similarity.
func (s *Service) SimilarityIn(ns Namespace, a, b NodeID) (float64, error) {
	if err := ns.Valid(); err != nil {
		return 0, err
	}
	return s.pair(nsSim(ns), a, b)
}

// TopKIn is TopK under a single namespace's signal, with the same candidate
// semantics as TopK.
func (s *Service) TopKIn(ns Namespace, client NodeID, candidates []NodeID, k int) ([]Scored, error) {
	if err := ns.Valid(); err != nil {
		return nil, err
	}
	return s.rank(nsSim(ns), client, candidates, k)
}
