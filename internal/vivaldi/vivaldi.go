// Package vivaldi implements the Vivaldi decentralized network-coordinate
// system (Dabek et al., SIGCOMM 2004), one of the embedding-based
// positioning approaches the CRP paper positions itself against. It is used
// by this repository's ablation benchmarks as a third selection baseline:
// coordinates are computed from pairwise latency samples by simulating a
// mass-spring system, and distances between coordinates predict RTTs.
package vivaldi

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/netsim"
)

// Algorithm constants from the Vivaldi paper.
const (
	dim            = 3
	ce             = 0.25 // error-estimate damping
	cc             = 0.25 // coordinate timestep
	rounds         = 60   // sampling rounds per node
	initialError   = 1.0
	minSpacing     = 1e-6 // displacement for coincident coordinates
	saltVivaldi    = 0x7669_7661
	sampleInterval = 10 * time.Second
)

// Coord is a Vivaldi network coordinate: a Euclidean vector plus the
// non-Euclidean "height" that models access-link delay.
type Coord struct {
	Vec    []float64
	Height float64
}

// DistanceMs predicts the RTT between two coordinates.
func DistanceMs(a, b Coord) float64 {
	s := 0.0
	for i := range a.Vec {
		d := a.Vec[i] - b.Vec[i]
		s += d * d
	}
	return math.Sqrt(s) + a.Height + b.Height
}

// Config parameterizes an embedding run.
type Config struct {
	Topo  *netsim.Topology
	Hosts []netsim.HostID
	Seed  int64
}

// System holds the embedded coordinates of a set of hosts.
type System struct {
	coords map[netsim.HostID]*state
}

type state struct {
	coord Coord
	err   float64
}

// Embed runs the spring-relaxation simulation: every round, each host
// samples the RTT to a random other host and nudges its coordinate. The
// run is deterministic in Config.Seed.
func Embed(cfg Config) (*System, error) {
	if cfg.Topo == nil {
		return nil, errors.New("vivaldi: Config.Topo is required")
	}
	if len(cfg.Hosts) < 2 {
		return nil, errors.New("vivaldi: need at least two hosts")
	}
	for _, id := range cfg.Hosts {
		if cfg.Topo.Host(id) == nil {
			return nil, fmt.Errorf("vivaldi: unknown host %d", id)
		}
	}

	rng := rand.New(rand.NewPCG(uint64(cfg.Seed), 0x766976616c6469))
	sys := &System{coords: make(map[netsim.HostID]*state, len(cfg.Hosts))}
	for _, id := range cfg.Hosts {
		vec := make([]float64, dim)
		for i := range vec {
			vec[i] = rng.NormFloat64() * 0.1 // tiny random start breaks symmetry
		}
		sys.coords[id] = &state{coord: Coord{Vec: vec}, err: initialError}
	}

	at := time.Duration(0)
	probe := uint64(0)
	for round := 0; round < rounds; round++ {
		for _, id := range cfg.Hosts {
			peer := cfg.Hosts[rng.IntN(len(cfg.Hosts))]
			if peer == id {
				continue
			}
			probe++
			rtt := cfg.Topo.MeasureRTTMs(id, peer, at, saltVivaldi+probe)
			sys.update(id, peer, rtt)
		}
		at += sampleInterval
	}
	return sys, nil
}

// update applies one Vivaldi sample: node i observed rtt to node j.
func (s *System) update(i, j netsim.HostID, rtt float64) {
	si, sj := s.coords[i], s.coords[j]
	if rtt <= 0 {
		return
	}
	predicted := DistanceMs(si.coord, sj.coord)

	// Sample confidence balances the two nodes' error estimates.
	w := si.err / (si.err + sj.err)
	relErr := math.Abs(predicted-rtt) / rtt
	si.err = relErr*ce*w + si.err*(1-ce*w)
	if si.err < 0.01 {
		si.err = 0.01
	}

	// Move along the unit vector from j to i, scaled by the force.
	force := cc * w * (rtt - predicted)
	dir := make([]float64, len(si.coord.Vec))
	norm := 0.0
	for k := range dir {
		dir[k] = si.coord.Vec[k] - sj.coord.Vec[k]
		norm += dir[k] * dir[k]
	}
	norm = math.Sqrt(norm)
	if norm < minSpacing {
		// Coincident points: pick an arbitrary deterministic direction.
		dir[0], norm = 1, 1
	}
	for k := range dir {
		si.coord.Vec[k] += force * dir[k] / norm
	}
	// Height absorbs the share of the force along the access link.
	si.coord.Height += force * 0.1
	if si.coord.Height < 0 {
		si.coord.Height = 0
	}
}

// Coord returns a host's embedded coordinate.
func (s *System) Coord(id netsim.HostID) (Coord, bool) {
	st, ok := s.coords[id]
	if !ok {
		return Coord{}, false
	}
	vec := make([]float64, len(st.coord.Vec))
	copy(vec, st.coord.Vec)
	return Coord{Vec: vec, Height: st.coord.Height}, true
}

// PredictMs predicts the RTT between two embedded hosts.
func (s *System) PredictMs(a, b netsim.HostID) (float64, error) {
	ca, ok := s.coords[a]
	if !ok {
		return 0, fmt.Errorf("vivaldi: host %d not embedded", a)
	}
	cb, ok := s.coords[b]
	if !ok {
		return 0, fmt.Errorf("vivaldi: host %d not embedded", b)
	}
	return DistanceMs(ca.coord, cb.coord), nil
}

// SelectClosest returns the candidate with the smallest predicted RTT to
// client.
func (s *System) SelectClosest(client netsim.HostID, candidates []netsim.HostID) (netsim.HostID, error) {
	if len(candidates) == 0 {
		return 0, errors.New("vivaldi: no candidates")
	}
	best, bestD := netsim.HostID(-1), math.Inf(1)
	for _, c := range candidates {
		d, err := s.PredictMs(client, c)
		if err != nil {
			return 0, err
		}
		if d < bestD || (d == bestD && c < best) {
			best, bestD = c, d
		}
	}
	return best, nil
}
