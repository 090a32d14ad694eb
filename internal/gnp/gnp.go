// Package gnp implements Global Network Positioning (Ng & Zhang, INFOCOM
// 2002), the landmark-based coordinate embedding the CRP paper cites as the
// root of the absolute-positioning line of work ([30]). A small set of
// landmarks measures pairwise RTTs and solves for coordinates in a
// low-dimensional Euclidean space; every other host then measures the
// landmarks and solves for its own coordinates against theirs. Together
// with Vivaldi (decentralized embedding), Meridian (direct measurement),
// landmark binning (relative positioning) and CRP itself (measurement
// reuse), this completes the four approach families in the paper's related
// work for side-by-side comparison.
package gnp

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/netsim"
)

// Default embedding parameters: the GNP paper finds small dimensionalities
// sufficient and uses Simplex minimization; plain gradient descent with a
// decaying step reaches comparable quality on these scales.
const (
	dim         = 5
	iterations  = 3000
	initialStep = 0.05
	saltGNP     = 0x676e70
)

// Config parameterizes an embedding.
type Config struct {
	Topo      *netsim.Topology
	Landmarks []netsim.HostID
	Seed      int64
	// At is the virtual time measurements are taken.
	At time.Duration
}

// System holds landmark coordinates and embedded hosts.
type System struct {
	cfg       Config
	landmarks []netsim.HostID
	lcoords   [][]float64
	coords    map[netsim.HostID][]float64
}

// New solves the landmark coordinates (phase 1 of GNP) from their pairwise
// measured RTTs.
func New(cfg Config) (*System, error) {
	if cfg.Topo == nil {
		return nil, errors.New("gnp: Config.Topo is required")
	}
	if len(cfg.Landmarks) < 3 {
		return nil, errors.New("gnp: need at least three landmarks")
	}
	if dim >= len(cfg.Landmarks) {
		return nil, fmt.Errorf("gnp: dimension %d requires more than %d landmarks", dim, len(cfg.Landmarks))
	}
	for _, l := range cfg.Landmarks {
		if cfg.Topo.Host(l) == nil {
			return nil, fmt.Errorf("gnp: unknown landmark %d", l)
		}
	}

	s := &System{
		cfg:       cfg,
		landmarks: append([]netsim.HostID(nil), cfg.Landmarks...),
		coords:    make(map[netsim.HostID][]float64),
	}

	// Landmark-to-landmark measurements.
	n := len(s.landmarks)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = cfg.Topo.MeasureRTTMs(s.landmarks[i], s.landmarks[j], cfg.At, saltGNP+uint64(i))
			}
		}
	}

	// Solve all landmark coordinates jointly by gradient descent on the
	// squared RTT error.
	rng := rand.New(rand.NewPCG(uint64(cfg.Seed), 0x676e70_1))
	s.lcoords = make([][]float64, n)
	for i := range s.lcoords {
		s.lcoords[i] = randomVec(rng, dim, 50)
	}
	for it := 0; it < iterations; it++ {
		step := initialStep * (1 - float64(it)/float64(iterations))
		for i := 0; i < n; i++ {
			grad := make([]float64, dim)
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				addGradient(grad, s.lcoords[i], s.lcoords[j], d[i][j])
			}
			for k := range grad {
				s.lcoords[i][k] -= step * grad[k]
			}
		}
	}
	for i, l := range s.landmarks {
		s.coords[l] = s.lcoords[i]
	}
	return s, nil
}

// randomVec draws a vector with entries in [-scale, scale).
func randomVec(rng *rand.Rand, dim int, scale float64) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = (rng.Float64()*2 - 1) * scale
	}
	return v
}

// addGradient accumulates the gradient of (||x−y|| − target)² w.r.t. x.
func addGradient(grad, x, y []float64, target float64) {
	dist := 0.0
	for k := range x {
		diff := x[k] - y[k]
		dist += diff * diff
	}
	dist = math.Sqrt(dist)
	if dist < 1e-9 {
		return
	}
	coeff := 2 * (dist - target) / dist
	for k := range x {
		grad[k] += coeff * (x[k] - y[k])
	}
}

// Embed solves coordinates for the given hosts (phase 2): each host
// measures the landmarks and descends on its own squared error against the
// fixed landmark coordinates.
func (s *System) Embed(hosts []netsim.HostID) error {
	rng := rand.New(rand.NewPCG(uint64(s.cfg.Seed), 0x676e70_2))
	for _, h := range hosts {
		if s.cfg.Topo.Host(h) == nil {
			return fmt.Errorf("gnp: unknown host %d", h)
		}
		targets := make([]float64, len(s.landmarks))
		for i, l := range s.landmarks {
			targets[i] = s.cfg.Topo.MeasureRTTMs(h, l, s.cfg.At, saltGNP+uint64(100+i))
		}
		x := randomVec(rng, dim, 50)
		for it := 0; it < iterations; it++ {
			step := initialStep * (1 - float64(it)/float64(iterations))
			grad := make([]float64, dim)
			for i := range s.landmarks {
				addGradient(grad, x, s.lcoords[i], targets[i])
			}
			for k := range grad {
				x[k] -= step * grad[k]
			}
		}
		s.coords[h] = x
	}
	return nil
}

// Coord returns a host's coordinate (copy).
func (s *System) Coord(h netsim.HostID) ([]float64, bool) {
	c, ok := s.coords[h]
	if !ok {
		return nil, false
	}
	out := make([]float64, len(c))
	copy(out, c)
	return out, true
}

// PredictMs predicts RTT(a, b) as the Euclidean coordinate distance.
func (s *System) PredictMs(a, b netsim.HostID) (float64, error) {
	ca, ok := s.coords[a]
	if !ok {
		return 0, fmt.Errorf("gnp: host %d not embedded", a)
	}
	cb, ok := s.coords[b]
	if !ok {
		return 0, fmt.Errorf("gnp: host %d not embedded", b)
	}
	sum := 0.0
	for k := range ca {
		diff := ca[k] - cb[k]
		sum += diff * diff
	}
	return math.Sqrt(sum), nil
}

// SelectClosest returns the candidate with the smallest predicted RTT to
// client, ties broken by ID.
func (s *System) SelectClosest(client netsim.HostID, candidates []netsim.HostID) (netsim.HostID, error) {
	if len(candidates) == 0 {
		return 0, errors.New("gnp: no candidates")
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
