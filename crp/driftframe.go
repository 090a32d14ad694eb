package crp

import (
	"sort"
	"time"
)

// FrameStream is one monitored aggregate in a DriftFrame: the L1-normalized
// redirection-mass distribution of a client population within a single CDN
// namespace. Group is empty for the whole tracked population and names the
// aggregation-plane prefix/LDNS group otherwise. Support counts the
// contributing evidence — tracked nodes for population streams, absorbed
// probes (post-decay) for aggregate groups — so a detector can gate
// too-thin streams.
type FrameStream struct {
	NS      string   `json:"ns"`
	Group   string   `json:"group,omitempty"`
	Support int      `json:"support"`
	Map     RatioMap `json:"map"`
}

// DriftFrame is one snapshot of the compiled ratio-map stream, the input of
// the internal/drift detector: every (namespace, population) aggregate the
// service currently serves, plus the service's cumulative accepted-probe
// count so staleness ("map frozen while probes keep landing") is decidable.
// Streams are sorted by (NS, Group) and the maps are freshly built, so a
// frame is an immutable value once returned.
type DriftFrame struct {
	At       time.Time     `json:"at"`
	Observes uint64        `json:"observes"`
	Streams  []FrameStream `json:"streams"`
}

// DriftFrame captures the current ratio-map stream snapshot at time at. It
// walks the sharded store's compiled snapshot (cheap: sub-snapshots are
// cached per shard) splitting each node's vector by replica namespace, and,
// when aggregation is enabled, the aggregation plane's compiled per-group
// vectors. All accumulation and normalization runs in sorted order, so the
// same store state always yields the byte-identical frame.
func (s *Service) DriftFrame(at time.Time) DriftFrame {
	f := DriftFrame{At: at, Observes: s.observeSeq()}

	// Whole-population streams: per-namespace sums over every tracked
	// node's compiled ratio vector.
	type popAcc struct {
		m     map[ReplicaID]float64
		nodes int
	}
	pops := make(map[Namespace]*popAcc)
	snap := s.store.snapshot()
	for _, part := range snap.parts {
		for _, nv := range part {
			var seen map[Namespace]bool
			for i, id := range nv.vec.ids {
				ns, bare := SplitReplica(id)
				a := pops[ns]
				if a == nil {
					a = &popAcc{m: make(map[ReplicaID]float64)}
					pops[ns] = a
				}
				a.m[bare] += nv.vec.vals[i]
				if seen == nil {
					seen = make(map[Namespace]bool, 2)
				}
				if !seen[ns] {
					seen[ns] = true
					a.nodes++
				}
			}
		}
	}
	nss := make([]Namespace, 0, len(pops))
	for ns := range pops {
		nss = append(nss, ns)
	}
	sort.Slice(nss, func(a, b int) bool { return nss[a] < nss[b] })
	for _, ns := range nss {
		a := pops[ns]
		f.Streams = append(f.Streams, FrameStream{
			NS: string(ns), Support: a.nodes, Map: normalizedSorted(a.m),
		})
	}

	// Aggregation-plane streams: one per (namespace, prefix group).
	if s.agg != nil {
		type grec struct {
			key    string
			vec    ratioVec
			probes int
		}
		var gs []grec
		for si := range s.agg.shards {
			sh := &s.agg.shards[si]
			sh.mu.Lock()
			for key, g := range sh.groups {
				// A compiled vector is never mutated after it is built (see
				// aggregator.vecFor), so it is read past the lock as is.
				gs = append(gs, grec{key: key, vec: g.compileLocked(&s.agg.intern), probes: int(g.probes)})
			}
			sh.mu.Unlock()
		}
		sort.Slice(gs, func(a, b int) bool { return gs[a].key < gs[b].key })
		for _, g := range gs {
			per := make(map[Namespace]map[ReplicaID]float64)
			for i, id := range g.vec.ids {
				ns, bare := SplitReplica(id)
				m := per[ns]
				if m == nil {
					m = make(map[ReplicaID]float64)
					per[ns] = m
				}
				m[bare] += g.vec.vals[i]
			}
			gns := make([]Namespace, 0, len(per))
			for ns := range per {
				gns = append(gns, ns)
			}
			sort.Slice(gns, func(a, b int) bool { return gns[a] < gns[b] })
			for _, ns := range gns {
				f.Streams = append(f.Streams, FrameStream{
					NS: string(ns), Group: g.key, Support: g.probes,
					Map: normalizedSorted(per[ns]),
				})
			}
		}
	}

	sort.Slice(f.Streams, func(a, b int) bool {
		if f.Streams[a].NS != f.Streams[b].NS {
			return f.Streams[a].NS < f.Streams[b].NS
		}
		return f.Streams[a].Group < f.Streams[b].Group
	})
	return f
}

// normalizedSorted L1-normalizes m into a fresh RatioMap, summing in sorted
// key order so the float rounding is identical across reruns regardless of
// map iteration order.
func normalizedSorted(m map[ReplicaID]float64) RatioMap {
	ids := make([]ReplicaID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	sum := 0.0
	for _, id := range ids {
		sum += m[id]
	}
	out := make(RatioMap, len(m))
	if sum <= 0 {
		return out
	}
	for _, id := range ids {
		out[id] = m[id] / sum
	}
	return out
}
