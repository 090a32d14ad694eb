// Package meridian implements the Meridian closest-node service (Wong,
// Slivkins, Sirer — SIGCOMM 2005), the direct-measurement baseline the CRP
// paper compares against. Each overlay node keeps a small set of peers
// organized into concentric, non-overlapping latency rings, periodically
// polished for geographic diversity; node discovery uses an anti-entropy
// gossip push; and a closest-node query walks the overlay, at each hop
// probing the ring members whose distance brackets the current node's
// distance to the target and forwarding when a peer improves on it by the
// acceptance factor β.
//
// The package also injects the PlanetLab failure modes the paper reports
// dominating Meridian's error tail: freshly-bootstrapped nodes that
// recommend themselves for hours, nodes that never successfully join, and
// site-partitioned nodes that only know their co-located peer.
package meridian

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/netsim"
)

// Meridian parameters, following the SIGCOMM paper.
const (
	numRings = 9
	ringBase = 2.0 // s: ring i spans (α·s^(i-1), α·s^i]
	alphaMs  = 1.0 // α: radius of the innermost ring
	ringK    = 8   // primary members per ring
	beta     = 0.5 // acceptance threshold

	gossipRounds     = 12
	gossipSampleSize = 6
)

// saltMeridian decorrelates Meridian's probes from other measurement
// subsystems in the simulator.
const saltMeridian uint64 = 0x6d65_7269

// Config parameterizes the overlay.
type Config struct {
	Topo    *netsim.Topology
	Members []netsim.HostID // overlay nodes (the paper's PlanetLab hosts)
	Seed    int64

	// Failure injection (fractions of Members):
	// SelfishFraction of nodes are stuck bootstrapping and answer every
	// query with themselves; DeadFraction never join the overlay (they know
	// nobody); PartitionPairs pairs of nodes only know each other.
	SelfishFraction float64
	DeadFraction    float64
	PartitionPairs  int
}

// node is one overlay member's state.
type node struct {
	id      netsim.HostID
	rings   [][]netsim.HostID // ring index → members
	known   map[netsim.HostID]bool
	selfish bool
	dead    bool
	// partnerOnly, when valid, is the only node this member knows
	// (site-partition pathology).
	partnerOnly netsim.HostID
}

// Overlay is a built Meridian deployment. Queries are safe for concurrent
// use once Build returns (the overlay is immutable afterwards).
type Overlay struct {
	cfg   Config
	topo  *netsim.Topology
	nodes map[netsim.HostID]*node
	order []netsim.HostID // deterministic iteration order
}

// QueryStats reports the work one closest-node query performed.
type QueryStats struct {
	Hops    int
	Probes  int
	Visited []netsim.HostID
}

// Build constructs the overlay: membership, failure assignment, gossip
// discovery and ring construction, deterministically in Config.Seed.
func Build(cfg Config) (*Overlay, error) {
	if cfg.Topo == nil {
		return nil, errors.New("meridian: Config.Topo is required")
	}
	if len(cfg.Members) == 0 {
		return nil, errors.New("meridian: no members")
	}
	if cfg.SelfishFraction < 0 || cfg.SelfishFraction > 1 ||
		cfg.DeadFraction < 0 || cfg.DeadFraction > 1 {
		return nil, errors.New("meridian: failure fractions outside [0,1]")
	}
	for _, id := range cfg.Members {
		if cfg.Topo.Host(id) == nil {
			return nil, fmt.Errorf("meridian: unknown member host %d", id)
		}
	}

	o := &Overlay{
		cfg:   cfg,
		topo:  cfg.Topo,
		nodes: make(map[netsim.HostID]*node, len(cfg.Members)),
	}
	o.order = append(o.order, cfg.Members...)
	sort.Slice(o.order, func(i, j int) bool { return o.order[i] < o.order[j] })
	for _, id := range o.order {
		if _, dup := o.nodes[id]; dup {
			return nil, fmt.Errorf("meridian: duplicate member %d", id)
		}
		o.nodes[id] = &node{
			id:          id,
			rings:       make([][]netsim.HostID, numRings+1),
			known:       make(map[netsim.HostID]bool),
			partnerOnly: -1,
		}
	}

	rng := rand.New(rand.NewPCG(uint64(cfg.Seed), 0x6d6572696469616e))
	o.assignFailures(rng)
	o.gossip(rng)
	o.buildRings()
	return o, nil
}

func (o *Overlay) assignFailures(rng *rand.Rand) {
	shuffled := append([]netsim.HostID(nil), o.order...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	nSelfish := int(math.Round(o.cfg.SelfishFraction * float64(len(shuffled))))
	nDead := int(math.Round(o.cfg.DeadFraction * float64(len(shuffled))))
	idx := 0
	for i := 0; i < nSelfish && idx < len(shuffled); i, idx = i+1, idx+1 {
		o.nodes[shuffled[idx]].selfish = true
	}
	for i := 0; i < nDead && idx < len(shuffled); i, idx = i+1, idx+1 {
		o.nodes[shuffled[idx]].dead = true
	}
	for i := 0; i < o.cfg.PartitionPairs && idx+1 < len(shuffled); i, idx = i+1, idx+2 {
		a, b := shuffled[idx], shuffled[idx+1]
		o.nodes[a].partnerOnly = b
		o.nodes[b].partnerOnly = a
	}
}

// gossip runs the anti-entropy push protocol: each round, every healthy node
// pushes a random sample of its known set to a random known peer. Nodes
// bootstrap knowing one seed node.
func (o *Overlay) gossip(rng *rand.Rand) {
	var healthy []netsim.HostID
	for _, id := range o.order {
		n := o.nodes[id]
		if n.dead || n.partnerOnly >= 0 {
			continue
		}
		healthy = append(healthy, id)
	}
	if len(healthy) == 0 {
		return
	}
	seed := healthy[0]
	for _, id := range healthy {
		if id != seed {
			o.nodes[id].known[seed] = true
			o.nodes[seed].known[id] = true // seed learns joiners, as a rendezvous would
		}
	}

	for round := 0; round < gossipRounds; round++ {
		for _, id := range healthy {
			n := o.nodes[id]
			if len(n.known) == 0 {
				continue
			}
			peer := pickRandomKnown(n, rng)
			// Push a sample of n's view (plus n itself) to peer.
			sample := sampleKnown(n, rng, gossipSampleSize)
			p := o.nodes[peer]
			if p == nil || p.dead {
				continue
			}
			for _, s := range append(sample, id) {
				if s != peer {
					p.known[s] = true
				}
			}
			// Anti-entropy: the peer answers with a sample of its own view.
			back := sampleKnown(p, rng, gossipSampleSize)
			for _, s := range back {
				if s != id {
					n.known[s] = true
				}
			}
		}
	}

	// Partitioned nodes know only their partner.
	for _, id := range o.order {
		n := o.nodes[id]
		if n.partnerOnly >= 0 {
			n.known = map[netsim.HostID]bool{n.partnerOnly: true}
		}
	}
}

func pickRandomKnown(n *node, rng *rand.Rand) netsim.HostID {
	ids := sortedKnown(n)
	return ids[rng.IntN(len(ids))]
}

func sampleKnown(n *node, rng *rand.Rand, k int) []netsim.HostID {
	ids := sortedKnown(n)
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}

func sortedKnown(n *node) []netsim.HostID {
	ids := make([]netsim.HostID, 0, len(n.known))
	for id := range n.known {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// buildRings measures each node's known peers and installs them into
// latency rings, polishing oversubscribed rings for diversity.
func (o *Overlay) buildRings() {
	for _, id := range o.order {
		n := o.nodes[id]
		for peer := range n.known {
			rtt := o.topo.MeasureRTTMs(id, peer, 0, saltMeridian)
			ring := o.ringIndex(rtt)
			n.rings[ring] = append(n.rings[ring], peer)
		}
		for ri := range n.rings {
			sort.Slice(n.rings[ri], func(i, j int) bool { return n.rings[ri][i] < n.rings[ri][j] })
			if len(n.rings[ri]) > ringK {
				n.rings[ri] = o.polishRing(n.rings[ri])
			}
		}
	}
}

// ringIndex maps an RTT to its ring: ring i spans (α·s^(i-1), α·s^i], with
// everything beyond the outermost bound folded into the last ring.
func (o *Overlay) ringIndex(rttMs float64) int {
	if rttMs <= alphaMs {
		return 1
	}
	i := int(math.Ceil(math.Log(rttMs/alphaMs) / math.Log(ringBase)))
	if i < 1 {
		i = 1
	}
	if i > numRings {
		i = numRings
	}
	return i
}

// polishRing reduces an oversubscribed ring to RingK members, greedily
// maximizing the sum of pairwise latencies among the selected members —
// the same diversity objective as Meridian's hypervolume maximization, in a
// cheaper surrogate form (the hypervolume of the polytope grows with the
// spread of its vertices).
func (o *Overlay) polishRing(members []netsim.HostID) []netsim.HostID {
	k := ringK
	if len(members) <= k {
		return members
	}
	selected := []netsim.HostID{members[0]}
	remaining := append([]netsim.HostID(nil), members[1:]...)
	for len(selected) < k && len(remaining) > 0 {
		bestIdx, bestGain := 0, -1.0
		for i, cand := range remaining {
			gain := 0.0
			for _, s := range selected {
				gain += o.topo.BaseRTTMs(cand, s)
			}
			if gain > bestGain {
				bestIdx, bestGain = i, gain
			}
		}
		selected = append(selected, remaining[bestIdx])
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	sort.Slice(selected, func(i, j int) bool { return selected[i] < selected[j] })
	return selected
}

// Members returns the overlay membership.
func (o *Overlay) Members() []netsim.HostID {
	return append([]netsim.HostID(nil), o.order...)
}

// NodeHealth describes a member's injected condition, for diagnostics.
type NodeHealth struct {
	Selfish     bool
	Dead        bool
	Partitioned bool
}

// Health reports the injected condition of a member.
func (o *Overlay) Health(id netsim.HostID) (NodeHealth, bool) {
	n, ok := o.nodes[id]
	if !ok {
		return NodeHealth{}, false
	}
	return NodeHealth{Selfish: n.selfish, Dead: n.dead, Partitioned: n.partnerOnly >= 0}, true
}

// ClosestTo answers a closest-node query: starting from the entry member,
// walk the overlay toward the member closest to target, probing ring
// members whose distances bracket the current node's distance. It returns
// the recommended member and query statistics.
func (o *Overlay) ClosestTo(entry, target netsim.HostID, at time.Duration) (netsim.HostID, QueryStats, error) {
	cur, ok := o.nodes[entry]
	if !ok {
		return 0, QueryStats{}, fmt.Errorf("meridian: entry %d is not an overlay member", entry)
	}
	if o.topo.Host(target) == nil {
		return 0, QueryStats{}, fmt.Errorf("meridian: unknown target host %d", target)
	}

	stats := QueryStats{Visited: []netsim.HostID{cur.id}}

	// The paper's observed pathologies: selfish or dead nodes answer with
	// themselves regardless of the target.
	if cur.selfish || cur.dead {
		return cur.id, stats, nil
	}

	measure := func(from, to netsim.HostID) float64 {
		stats.Probes++
		return o.topo.MeasureRTTMs(from, to, at, saltMeridian+uint64(stats.Probes))
	}

	d := measure(cur.id, target)
	bestID, bestD := cur.id, d
	visited := map[netsim.HostID]bool{cur.id: true}

	for {
		// Probe ring members with latency to cur within [(1-β)d, (1+β)d]:
		// only they can plausibly be closer to the target by factor β.
		lo, hi := (1-beta)*d, (1+beta)*d
		var candBest netsim.HostID = -1
		candD := math.Inf(1)
		for ri := 1; ri <= numRings; ri++ {
			for _, peer := range cur.rings[ri] {
				if visited[peer] {
					continue
				}
				p := o.nodes[peer]
				if p == nil || p.dead {
					continue
				}
				ringDist := o.topo.MeasureRTTMs(cur.id, peer, at, saltMeridian)
				if ringDist < lo || ringDist > hi {
					continue
				}
				pd := measure(peer, target)
				if pd < candD {
					candBest, candD = peer, pd
				}
				if pd < bestD {
					bestID, bestD = peer, pd
				}
			}
		}
		// Forward only when the best candidate improves by the acceptance
		// factor β; otherwise this node's best answer stands.
		if candBest < 0 || candD > beta*d {
			return bestID, stats, nil
		}
		next := o.nodes[candBest]
		if next.selfish {
			// A selfish next hop swallows the query and answers itself.
			stats.Hops++
			stats.Visited = append(stats.Visited, next.id)
			return next.id, stats, nil
		}
		cur, d = next, candD
		visited[cur.id] = true
		stats.Hops++
		stats.Visited = append(stats.Visited, cur.id)
	}
}
