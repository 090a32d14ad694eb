package meridian

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/netsim"
)

// Multi-constraint queries, the Meridian system's second primitive: find
// overlay members whose latency to each of a set of targets is below a
// per-target bound. The CRP paper's §I motivates exactly this shape of
// query — online games placing a session host so that every participant
// stays within a real-time delay budget.

// Constraint bounds the latency from a sought member to one target host.
type Constraint struct {
	Target  netsim.HostID
	BoundMs float64
}

// SatisfyConstraints walks the overlay looking for members that satisfy
// every constraint, returning up to max of them (sorted by total slack,
// best first). The search mirrors the closest-node walk: each hop probes
// the ring members bracketing the current node's worst constraint violation
// and forwards to the peer that reduces it most.
func (o *Overlay) SatisfyConstraints(entry netsim.HostID, constraints []Constraint, max int, at time.Duration) ([]netsim.HostID, QueryStats, error) {
	cur, ok := o.nodes[entry]
	if !ok {
		return nil, QueryStats{}, fmt.Errorf("meridian: entry %d is not an overlay member", entry)
	}
	if len(constraints) == 0 {
		return nil, QueryStats{}, fmt.Errorf("meridian: no constraints")
	}
	if max <= 0 {
		max = 1
	}
	for _, c := range constraints {
		if o.topo.Host(c.Target) == nil {
			return nil, QueryStats{}, fmt.Errorf("meridian: unknown target host %d", c.Target)
		}
		if c.BoundMs <= 0 {
			return nil, QueryStats{}, fmt.Errorf("meridian: non-positive bound %v", c.BoundMs)
		}
	}

	stats := QueryStats{Visited: []netsim.HostID{cur.id}}
	if cur.selfish || cur.dead {
		// Pathological entries cannot run the search; they report nothing.
		return nil, stats, nil
	}

	measure := func(from, to netsim.HostID) float64 {
		stats.Probes++
		return o.topo.MeasureRTTMs(from, to, at, saltMeridian+uint64(stats.Probes))
	}

	// violation returns the summed constraint excess for a member (0 means
	// all constraints hold) and its total slack when satisfied.
	evaluate := func(member netsim.HostID) (violation, slack float64) {
		for _, c := range constraints {
			rtt := measure(member, c.Target)
			if rtt > c.BoundMs {
				violation += rtt - c.BoundMs
			} else {
				slack += c.BoundMs - rtt
			}
		}
		return violation, slack
	}

	type hit struct {
		id    netsim.HostID
		slack float64
	}
	var hits []hit
	seen := map[netsim.HostID]bool{}

	consider := func(member netsim.HostID) float64 {
		if seen[member] {
			return math.Inf(1)
		}
		seen[member] = true
		n := o.nodes[member]
		if n == nil || n.dead || n.selfish {
			return math.Inf(1)
		}
		violation, slack := evaluate(member)
		if violation == 0 {
			hits = append(hits, hit{member, slack})
		}
		return violation
	}

	curViolation := consider(cur.id)
	for hops := 0; len(hits) < max && hops < numRings; hops++ {
		// Probe all of the current node's ring members; forward to the one
		// with the smallest remaining violation.
		bestNext, bestViolation := netsim.HostID(-1), curViolation
		for ri := 1; ri <= numRings; ri++ {
			for _, peer := range cur.rings[ri] {
				if seen[peer] {
					continue
				}
				v := consider(peer)
				if v < bestViolation {
					bestNext, bestViolation = peer, v
				}
			}
		}
		if bestNext < 0 {
			break // no progress possible
		}
		cur = o.nodes[bestNext]
		curViolation = bestViolation
		stats.Hops++
		stats.Visited = append(stats.Visited, cur.id)
	}

	sort.Slice(hits, func(i, j int) bool {
		if hits[i].slack != hits[j].slack {
			return hits[i].slack > hits[j].slack
		}
		return hits[i].id < hits[j].id
	})
	if len(hits) > max {
		hits = hits[:max]
	}
	out := make([]netsim.HostID, len(hits))
	for i, h := range hits {
		out[i] = h.id
	}
	return out, stats, nil
}
