package scenario

import (
	"math"
	"time"

	"repro/internal/netsim"
)

// Hash domains for the scenario package's seeded draws. Every random
// decision is a stateless netsim.Mix over (plan seed, domain, coordinates),
// so the whole run is a pure function of the plan: no generator state to
// thread, no draw-order coupling between groups.
const (
	domArrival = 0x5ca1ab1e_00000001 + iota
	domOpPick
	domMemberPick
	domTargetPick
	domReplicaPick
	domLDNS
	domProviderSeed
)

// arrivals is one driven group's instantiated arrival process.
type arrivals struct {
	seed     uint64 // Mix(plan seed, group index + 1)
	a        Arrival
	ldnsPool int // a mobile group's distinct LDNS identities: max(2, size/4)
}

func newArrivals(planSeed uint64, groupIdx, size int, a Arrival) *arrivals {
	return &arrivals{
		seed:     netsim.Mix(planSeed, uint64(groupIdx)+1),
		a:        a,
		ldnsPool: max(2, size/4),
	}
}

// RateAt is the instantaneous target rate (ops/second) at virtual offset t
// from the scenario start.
func (ar *arrivals) RateAt(t time.Duration) float64 {
	switch ar.a.Process {
	case ProcessConstant, ProcessMobile:
		return ar.a.Rate
	case ProcessDiurnal:
		// Trough at t=0, peak at Period/2: raised-cosine day shape.
		frac := math.Mod(t.Seconds(), ar.a.Period.D().Seconds()) / ar.a.Period.D().Seconds()
		return ar.a.Trough + (ar.a.Peak-ar.a.Trough)*(1-math.Cos(2*math.Pi*frac))/2
	case ProcessFlash:
		for _, s := range ar.a.Spikes {
			if t >= s.At.D() && t < s.At.D()+s.Width.D() {
				return ar.a.Rate * s.Factor
			}
		}
		return ar.a.Rate
	}
	return 0
}

// Count is the arrival count for tick number t (whose window starts at
// t*tick): a Poisson draw with mean RateAt·tickSeconds, seeded by
// (group seed, t), so the sequence is pinned per seed.
func (ar *arrivals) Count(t int) int {
	lambda := ar.RateAt(time.Duration(t)*tick) * tick.Seconds()
	return poisson(lambda, ar.seed, uint64(t))
}

// poisson draws Poisson(lambda) from the (seed, tick) hash stream. Knuth's
// product method is exact but needs ~lambda uniforms, so past lambda=30 we
// switch to the rounded-normal approximation (error < 1% there, and the
// long-run rate tests pin both paths).
func poisson(lambda float64, seed, tick uint64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		limit := math.Exp(-lambda)
		prod := 1.0
		n := 0
		for draw := uint64(0); ; draw++ {
			prod *= unitOpen(seed, domArrival, tick, draw)
			if prod <= limit {
				return n
			}
			n++
		}
	}
	// Box–Muller from two hash uniforms; clamp at zero.
	u1 := unitOpen(seed, domArrival, tick, 0)
	u2 := unitOpen(seed, domArrival, tick, 1)
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	n := int(math.Round(lambda + math.Sqrt(lambda)*z))
	if n < 0 {
		return 0
	}
	return n
}

// unitOpen is UnitAt nudged off exact zero, since the Poisson product loop
// and Box–Muller's log both need (0,1).
func unitOpen(vs ...uint64) float64 {
	u := netsim.UnitAt(vs...)
	if u <= 0 {
		return 1e-12
	}
	return u
}

// pickOp selects the j-th op of a tick by cumulative weight over the
// group's mix. Iteration over opOrder (not the map) keeps the draw stable.
var opOrder = []string{"observe", "closest", "topk", "similarity", "cluster"}

func pickOp(ops map[string]float64, seed, tick, j uint64) string {
	total := 0.0
	for _, op := range opOrder {
		total += ops[op]
	}
	u := netsim.UnitAt(seed, domOpPick, tick, j) * total
	acc := 0.0
	for _, op := range opOrder {
		acc += ops[op]
		if acc > 0 && u < acc {
			return op
		}
	}
	return opOrder[0]
}

// ldnsAt is a mobile member's LDNS identity index at tick time t. The
// member re-rolls (probability ChurnRate) at each period boundary; the
// walk is evaluated sequentially over epochs so a member's identity history
// is consistent — but it is still a pure function of (seed, member, epoch).
func (ar *arrivals) ldnsAt(member int, t time.Duration) int {
	epoch := uint64(0)
	if p := ar.a.Period.D(); p > 0 {
		epoch = uint64(t / p)
	}
	id := int(netsim.Mix(ar.seed, domLDNS, uint64(member)) % uint64(ar.ldnsPool))
	for e := uint64(1); e <= epoch; e++ {
		if netsim.UnitAt(ar.seed, domLDNS, uint64(member), e) < ar.a.ChurnRate {
			id = int(netsim.Mix(ar.seed, domLDNS, uint64(member), e, 1) % uint64(ar.ldnsPool))
		}
	}
	return id
}
