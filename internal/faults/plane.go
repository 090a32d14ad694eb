package faults

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// Hash sub-domains for the plane's independent decision streams. They share
// nothing with netsim's own domains because every draw also mixes the
// scenario seed.
const (
	domProbeLoss uint64 = 0xFA_17_0001 + iota
	domChurnGate
	domChurnPick
	domFlap
	domPkt
	domCongGate
	domDelayJitter
)

// congGateBucket quantizes rate-gated congestion so repeated RTT
// evaluations within a short interval agree (mirrors netsim's buckets).
const congGateBucket = time.Minute

// Option customizes a Plane.
type Option func(*Plane)

// WithRegistry directs the plane's activation counters to reg instead of
// obs.Default().
func WithRegistry(reg *obs.Registry) Option {
	return func(p *Plane) { p.reg = reg }
}

// WithClock attaches the virtual clock that gates packet-level fault
// windows (the simulation-level hooks receive explicit times instead).
// Without a clock, packet faults see virtual time 0: windows starting at 0
// are always active, later windows never are.
func WithClock(c *netsim.Clock) Option {
	return func(p *Plane) { p.clock = c }
}

// Plane is a compiled fault scenario: the deterministic decision procedure
// every layer consults. It is safe for concurrent use; all methods are
// stateless hashes apart from the activation counters.
type Plane struct {
	topo  *netsim.Topology
	sc    Scenario
	clock *netsim.Clock
	reg   *obs.Registry

	// churnPool is the LDNS identity pool churned hosts re-home to.
	churnPool []netsim.HostID

	// acts counts activations per fault index; kindCounters mirror them
	// into obs per kind ("faults.activations.<kind>").
	acts         []atomic.Uint64
	kindCounters map[Kind]*obs.Counter
}

// New compiles a scenario into a plane over the given topology. A nil
// topology is accepted when the scenario contains only pkt-* faults — the
// packet path never consults the topology, and standalone consumers of
// WrapPacketConn (the gossip mesh harness) have no simulated network at all.
func New(topo *netsim.Topology, sc Scenario, opts ...Option) (*Plane, error) {
	if topo == nil {
		for i := range sc.Faults {
			if !pktKinds[sc.Faults[i].Kind] {
				return nil, fmt.Errorf("faults: nil topology, but fault %d (%s) needs one", i, sc.Faults[i].Kind)
			}
		}
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	p := &Plane{
		topo:         topo,
		sc:           sc,
		reg:          obs.Default(),
		acts:         make([]atomic.Uint64, len(sc.Faults)),
		kindCounters: make(map[Kind]*obs.Counter),
	}
	if topo != nil {
		p.churnPool = topo.Clients()
	}
	for _, opt := range opts {
		opt(p)
	}
	for _, f := range sc.Faults {
		if _, ok := p.kindCounters[f.Kind]; !ok {
			p.kindCounters[f.Kind] = p.reg.Counter("faults.activations." + string(f.Kind))
		}
	}
	return p, nil
}

// Scenario returns the plane's (validated) scenario.
func (p *Plane) Scenario() Scenario { return p.sc }

// fired records one activation of fault i.
func (p *Plane) fired(i int) {
	p.acts[i].Add(1)
	p.kindCounters[p.sc.Faults[i].Kind].Inc()
}

// Activations returns the per-kind activation counts accumulated by this
// plane (not the process-wide obs counters, which outlive it).
func (p *Plane) Activations() map[Kind]uint64 {
	out := make(map[Kind]uint64)
	for i := range p.sc.Faults {
		out[p.sc.Faults[i].Kind] += p.acts[i].Load()
	}
	return out
}

// hostMatch reports whether fault f scopes host h (by region).
func (p *Plane) hostMatch(f *Fault, h netsim.HostID) bool {
	if f.Target == "" {
		return true
	}
	host := p.topo.Host(h)
	return host != nil && host.Region == f.Target
}

// --- netsim.Perturb ---------------------------------------------------------

var _ netsim.Perturb = (*Plane)(nil)

// ExtraRTTMs sums the active congestion storms covering host h at virtual
// time at. A fault with Rate in (0,1) gates per host per minute bucket, so
// a storm can be made intermittent.
func (p *Plane) ExtraRTTMs(h netsim.HostID, at time.Duration) float64 {
	extra := 0.0
	for i := range p.sc.Faults {
		f := &p.sc.Faults[i]
		if f.Kind != Congestion || !f.active(at) || !p.hostMatch(f, h) {
			continue
		}
		if f.Rate > 0 && f.Rate < 1 {
			bucket := uint64(at / congGateBucket)
			if netsim.UnitAt(p.sc.Seed, domCongGate, uint64(i), uint64(h), bucket) >= f.Rate {
				continue
			}
		}
		extra += f.ExtraMs
		p.fired(i)
	}
	return extra
}

// ClockSkew sums the active clock-skew faults covering host h at virtual
// time at: the offset h's own clock reads relative to true time.
func (p *Plane) ClockSkew(h netsim.HostID, at time.Duration) time.Duration {
	var skew time.Duration
	for i := range p.sc.Faults {
		f := &p.sc.Faults[i]
		if f.Kind != ClockSkew || !f.active(at) || !p.hostMatch(f, h) {
			continue
		}
		skew += f.Skew.D()
		p.fired(i)
	}
	return skew
}

// --- probe-path hooks (consulted by the experiment harness) ----------------

// ProbeLost reports whether host h's probe at virtual time at yields no
// observation: its LDNS is inside an outage window, or the resolution is
// individually lost (a DNS timeout after retries).
func (p *Plane) ProbeLost(h netsim.HostID, at time.Duration) bool {
	lost := false
	for i := range p.sc.Faults {
		f := &p.sc.Faults[i]
		if !f.active(at) || !p.hostMatch(f, h) {
			continue
		}
		switch f.Kind {
		case LDNSOutage:
			p.fired(i)
			lost = true
		case ProbeLoss:
			if netsim.UnitAt(p.sc.Seed, domProbeLoss, uint64(i), uint64(h), uint64(at)) < f.Rate {
				p.fired(i)
				lost = true
			}
		}
	}
	return lost
}

// ResolverFor returns the LDNS identity host h actually probes through at
// virtual time at: h itself, or — under an active churn fault — a
// deterministically drawn alternate from the client population. With a
// churn Period, the identity re-rolls every Period; otherwise once per
// window.
func (p *Plane) ResolverFor(h netsim.HostID, at time.Duration) netsim.HostID {
	for i := range p.sc.Faults {
		f := &p.sc.Faults[i]
		if f.Kind != LDNSChurn || !f.active(at) || !p.hostMatch(f, h) || len(p.churnPool) == 0 {
			continue
		}
		bucket := uint64(0)
		if f.Period > 0 {
			bucket = uint64(at / f.Period.D())
		}
		if netsim.UnitAt(p.sc.Seed, domChurnGate, uint64(i), uint64(h), bucket) >= f.Rate {
			continue
		}
		pick := p.churnPool[netsim.Mix(p.sc.Seed, domChurnPick, uint64(i), uint64(h), bucket)%uint64(len(p.churnPool))]
		if pick == h {
			pick = p.churnPool[(netsim.Mix(p.sc.Seed, domChurnPick, uint64(i), uint64(h), bucket)+1)%uint64(len(p.churnPool))]
		}
		if pick != h {
			p.fired(i)
			return pick
		}
	}
	return h
}

// --- CDN mapping hook -------------------------------------------------------

// MapHookFor returns the cdn.MapHook for the fleet member named ns ("" is
// the unnamed single-CDN member). The hook freezes the mapping state to the
// epoch containing a cdn-freeze fault's start, and rehashes the epoch
// identity every cdn-flap period, producing abrupt wholesale re-mappings.
// Only faults whose CDN scope is empty (fleet-wide) or exactly ns apply, so
// one scenario can freeze CDN A's mapping while CDN B keeps flapping on its
// own schedule.
func (p *Plane) MapHookFor(ns string) func(ldns netsim.HostID, at, epochLen time.Duration, epoch uint64) (uint64, time.Duration) {
	return func(ldns netsim.HostID, at, epochLen time.Duration, epoch uint64) (uint64, time.Duration) {
		epochStart := time.Duration(epoch) * epochLen
		for i := range p.sc.Faults {
			f := &p.sc.Faults[i]
			if !f.active(at) || !p.hostMatch(f, ldns) {
				continue
			}
			if f.CDN != "" && f.CDN != ns {
				continue
			}
			switch f.Kind {
			case CDNFreeze:
				epoch = uint64(f.Start.D() / epochLen)
				epochStart = time.Duration(epoch) * epochLen
				p.fired(i)
			case CDNFlap:
				bucket := uint64(0)
				if f.Period > 0 {
					bucket = uint64((at - f.Start.D()) / f.Period.D())
				}
				// Preserve the epoch's time meaning but replace its identity,
				// so every epoch-keyed draw (monitor salt, load, spread)
				// changes at once — an abrupt re-mapping event.
				epoch = netsim.Mix(p.sc.Seed, domFlap, uint64(i), bucket)
				p.fired(i)
			}
		}
		return epoch, epochStart
	}
}

// --- packet-path decisions (consulted by WrapPacketConn) --------------------

// pktNow is the virtual time packet-fault windows are evaluated at.
func (p *Plane) pktNow() time.Duration {
	if p.clock == nil {
		return 0
	}
	return p.clock.Now()
}

// pktDecide reports whether the idx-th packet crossing (label, dir) is hit
// by an active fault of the given kind, returning the fault's parameters.
func (p *Plane) pktDecide(kind Kind, label, dir string, idx uint64) (bool, *Fault) {
	now := p.pktNow()
	for i := range p.sc.Faults {
		f := &p.sc.Faults[i]
		if f.Kind != kind || !f.active(now) {
			continue
		}
		if f.Target != "" && f.Target != label {
			continue
		}
		rate := f.Rate
		if rate == 0 {
			rate = 1 // pkt-delay may omit the rate: delay everything
		}
		if netsim.UnitAt(p.sc.Seed, domPkt, uint64(i), hashString(kind, label, dir), idx) < rate {
			p.fired(i)
			return true, f
		}
	}
	return false, nil
}

// delayFor returns the hash-jittered delay for one sent packet (±50% of
// ExtraMs), or 0.
func (p *Plane) delayFor(label string, idx uint64) time.Duration {
	hit, f := p.pktDecide(PacketDelay, label, "tx", idx)
	if !hit {
		return 0
	}
	jitter := 0.5 + netsim.UnitAt(p.sc.Seed, domDelayJitter, hashString(f.Kind, label, "tx"), idx)
	return time.Duration(f.ExtraMs * jitter * float64(time.Millisecond))
}

// hashString folds identifying strings into one hash input.
func hashString(kind Kind, label, dir string) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		h = (h ^ 0xFF) * 1099511628211
	}
	mix(string(kind))
	mix(label)
	mix(dir)
	return h
}

// String summarizes the plane for logs.
func (p *Plane) String() string {
	return fmt.Sprintf("faults.Plane{seed=%d, faults=%d}", p.sc.Seed, len(p.sc.Faults))
}
