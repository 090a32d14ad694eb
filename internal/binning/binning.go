// Package binning implements the landmark-binning scheme of Ratnasamy et
// al. ("Topologically-aware overlay construction and server selection",
// INFOCOM 2002) — the relative network positioning approach the CRP paper
// explicitly positions itself against (§II): CRP targets the same
// *relative* positioning problems "but without requiring landmark selection
// or additional measurements".
//
// In binning, every node probes a small fixed set of landmark hosts and
// derives a bin: the ordering of landmarks by increasing RTT, augmented
// with a coarse latency level per landmark. Nodes that fall into the same
// (or a similar) bin are taken to be topologically close. The measurement
// cost CRP eliminates is explicit here: every node issues one probe per
// landmark.
package binning

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/crp"
	"repro/internal/netsim"
)

// DefaultLevels are the latency boundaries (ms) of the level annotation;
// Ratnasamy et al. suggest a small number of coarse levels.
var DefaultLevels = []float64{100, 200}

// saltBinning decorrelates binning's probes from other measurement users.
const saltBinning uint64 = 0x62696e

// Bin is a node's landmark bin: the landmark indices ordered by increasing
// measured RTT, and the latency level of each landmark in that order.
type Bin struct {
	Order  []int
	Levels []int
}

// Equal reports whether two bins are identical — Ratnasamy's "same bin"
// relation used for binning nodes together.
func (b Bin) Equal(o Bin) bool {
	if len(b.Order) != len(o.Order) {
		return false
	}
	for i := range b.Order {
		if b.Order[i] != o.Order[i] || b.Levels[i] != o.Levels[i] {
			return false
		}
	}
	return true
}

// key returns a comparable map key for the bin.
func (b Bin) key() string {
	out := make([]byte, 0, 2*len(b.Order))
	for i := range b.Order {
		out = append(out, byte(b.Order[i]), byte(b.Levels[i]))
	}
	return string(out)
}

// Config parameterizes a binning deployment.
type Config struct {
	Topo *netsim.Topology
	// Landmarks are the landmark hosts every participant probes.
	Landmarks []netsim.HostID
	// Levels are the latency level boundaries in ms (DefaultLevels if nil).
	Levels []float64
}

// System holds the measured bins of a set of participants.
type System struct {
	cfg  Config
	bins map[netsim.HostID]Bin
}

// ChooseLandmarks greedily picks k well-spread landmarks from a pool using
// max-min base RTT — the landmark-placement step CRP does not need.
func ChooseLandmarks(topo *netsim.Topology, pool []netsim.HostID, k int) ([]netsim.HostID, error) {
	if topo == nil {
		return nil, errors.New("binning: nil topology")
	}
	if k <= 0 || k > len(pool) {
		return nil, fmt.Errorf("binning: cannot choose %d landmarks from a pool of %d", k, len(pool))
	}
	chosen := []netsim.HostID{pool[0]}
	for len(chosen) < k {
		bestID, bestMin := netsim.HostID(-1), -1.0
		for _, cand := range pool {
			taken := false
			minD := -1.0
			for _, c := range chosen {
				if c == cand {
					taken = true
					break
				}
				if d := topo.BaseRTTMs(cand, c); minD < 0 || d < minD {
					minD = d
				}
			}
			if taken {
				continue
			}
			if minD > bestMin {
				bestID, bestMin = cand, minD
			}
		}
		if bestID < 0 {
			break
		}
		chosen = append(chosen, bestID)
	}
	return chosen, nil
}

// Measure probes every landmark from every host at virtual time at and
// computes the hosts' bins.
func Measure(cfg Config, hosts []netsim.HostID, at time.Duration) (*System, error) {
	if cfg.Topo == nil {
		return nil, errors.New("binning: Config.Topo is required")
	}
	if len(cfg.Landmarks) < 2 {
		return nil, errors.New("binning: need at least two landmarks")
	}
	if len(cfg.Levels) == 0 {
		cfg.Levels = DefaultLevels
	}
	for _, l := range cfg.Landmarks {
		if cfg.Topo.Host(l) == nil {
			return nil, fmt.Errorf("binning: unknown landmark %d", l)
		}
	}
	s := &System{cfg: cfg, bins: make(map[netsim.HostID]Bin, len(hosts))}
	for _, h := range hosts {
		if cfg.Topo.Host(h) == nil {
			return nil, fmt.Errorf("binning: unknown host %d", h)
		}
		type lm struct {
			idx int
			rtt float64
		}
		ms := make([]lm, len(cfg.Landmarks))
		for i, l := range cfg.Landmarks {
			ms[i] = lm{i, cfg.Topo.MeasureRTTMs(h, l, at, saltBinning+uint64(i))}
		}
		sort.Slice(ms, func(a, b int) bool {
			if ms[a].rtt != ms[b].rtt {
				return ms[a].rtt < ms[b].rtt
			}
			return ms[a].idx < ms[b].idx
		})
		bin := Bin{Order: make([]int, len(ms)), Levels: make([]int, len(ms))}
		for i, m := range ms {
			bin.Order[i] = m.idx
			bin.Levels[i] = level(m.rtt, cfg.Levels)
		}
		s.bins[h] = bin
	}
	return s, nil
}

// level maps an RTT to its latency level index.
func level(rtt float64, bounds []float64) int {
	for i, b := range bounds {
		if rtt < b {
			return i
		}
	}
	return len(bounds)
}

// Bin returns a host's bin.
func (s *System) Bin(h netsim.HostID) (Bin, bool) {
	b, ok := s.bins[h]
	return b, ok
}

// Similarity scores how alike two hosts' bins are, on [0, 1]: the common
// prefix of the landmark orderings (the primary signal in Ratnasamy et al.)
// plus a secondary credit for agreeing latency levels.
func (s *System) Similarity(a, b netsim.HostID) (float64, error) {
	ba, ok := s.bins[a]
	if !ok {
		return 0, fmt.Errorf("binning: host %d not measured", a)
	}
	bb, ok := s.bins[b]
	if !ok {
		return 0, fmt.Errorf("binning: host %d not measured", b)
	}
	m := len(ba.Order)
	prefix := 0
	for prefix < m && ba.Order[prefix] == bb.Order[prefix] {
		prefix++
	}
	levelAgree := 0
	for i := 0; i < m; i++ {
		if ba.Levels[i] == bb.Levels[i] {
			levelAgree++
		}
	}
	return 0.8*float64(prefix)/float64(m) + 0.2*float64(levelAgree)/float64(m), nil
}

// SelectClosest returns the candidate whose bin is most similar to the
// client's, ties broken by host ID for determinism.
func (s *System) SelectClosest(client netsim.HostID, candidates []netsim.HostID) (netsim.HostID, error) {
	if len(candidates) == 0 {
		return 0, errors.New("binning: no candidates")
	}
	best, bestSim := netsim.HostID(-1), -1.0
	for _, c := range candidates {
		sim, err := s.Similarity(client, c)
		if err != nil {
			return 0, err
		}
		if sim > bestSim || (sim == bestSim && c < best) {
			best, bestSim = c, sim
		}
	}
	return best, nil
}

// Clusters groups the measured hosts by identical bin — the binning paper's
// clustering rule — returning crp.Cluster values (node IDs are host names)
// for uniform quality evaluation. The center of each bin group is its
// lowest-ID member.
func (s *System) Clusters() []crp.Cluster {
	groups := make(map[string][]netsim.HostID)
	for h := range s.bins {
		k := s.bins[h].key()
		groups[k] = append(groups[k], h)
	}
	name := func(id netsim.HostID) crp.NodeID {
		return crp.NodeID(s.cfg.Topo.Host(id).Name)
	}
	out := make([]crp.Cluster, 0, len(groups))
	for _, members := range groups {
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		c := crp.Cluster{Center: name(members[0])}
		for _, m := range members {
			c.Members = append(c.Members, name(m))
		}
		sort.Slice(c.Members, func(i, j int) bool { return c.Members[i] < c.Members[j] })
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Members) != len(out[j].Members) {
			return len(out[i].Members) > len(out[j].Members)
		}
		return out[i].Center < out[j].Center
	})
	return out
}
