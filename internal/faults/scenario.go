// Package faults is the simulator's deterministic fault-injection plane.
//
// The CRP results depend on redirection behaviour that is messy in the
// wild — DNS packet loss, stale CDN maps across the 20 s TTL window, LDNS
// outages and churn, regional congestion storms, skewed client clocks —
// yet the benign substrate alone never exercises them. This package
// declares those conditions as a *scenario*: a seeded, JSON-serializable
// script of faults, each active over a window of the virtual clock. Every
// injection decision is a stateless hash of (scenario seed, fault index,
// entity identifiers, time bucket), the same discipline netsim uses for
// its noise, so any run of a scenario is bit-reproducible and two planes
// built from the same scenario make identical decisions.
//
// A Plane compiled from a scenario plugs into each layer through injected
// hooks: netsim.Perturb for congestion storms and clock skew, cdn.MapHook
// for frozen/flapping mapping state, per-probe predicates the experiment
// harness consults for probe loss and LDNS outage/churn, and a wrapping
// net.PacketConn for loss/duplication/reordering/delay on crpd's UDP
// paths. Each fault exports an activation counter through
// internal/obs so tests and benches can assert a fault actually fired.
package faults

import (
	"encoding/json"
	"fmt"
	"time"
)

// Kind names a fault class.
type Kind string

// The fault classes the plane can inject.
const (
	// ProbeLoss drops individual CDN probe resolutions (a DNS timeout as
	// the probing client sees it): the probe yields no observation.
	ProbeLoss Kind = "probe-loss"
	// LDNSOutage takes the targeted hosts' resolvers down for the whole
	// window: every probe in the window is lost.
	LDNSOutage Kind = "ldns-outage"
	// LDNSChurn re-homes the targeted hosts onto a different LDNS identity
	// (drawn deterministically from the client population), polluting their
	// redirection histories the way resolver churn does in the wild.
	LDNSChurn Kind = "ldns-churn"
	// CDNFreeze pins the CDN mapping state to the epoch containing the
	// fault's start: answers inside the window are stale replays, emulating
	// TTL-boundary staleness and a wedged mapping system.
	CDNFreeze Kind = "cdn-freeze"
	// CDNFlap forces an abrupt re-mapping event every Period: the mapping
	// epoch identity is rehashed, so answers jump wholesale (the YouLighter
	// observation that CDN re-mappings are large and sudden).
	CDNFlap Kind = "cdn-flap"
	// Congestion is a regional congestion storm: every targeted host adds
	// ExtraMs of delay to paths through it for the window's duration.
	Congestion Kind = "congestion"
	// ClockSkew offsets the targeted hosts' clocks by Skew: their diurnal
	// state shifts and their probe observations carry skewed timestamps.
	ClockSkew Kind = "clock-skew"
	// PacketLoss drops datagrams crossing a wrapped PacketConn.
	PacketLoss Kind = "pkt-loss"
	// PacketDup delivers some sent datagrams twice.
	PacketDup Kind = "pkt-dup"
	// PacketDelay sleeps ExtraMs (±50%, hash-jittered) before sending.
	PacketDelay Kind = "pkt-delay"
	// PacketReorder swaps a received datagram with its successor.
	PacketReorder Kind = "pkt-reorder"
)

// kindsHost lists the kinds scoped by host region, kindsConn the kinds
// scoped by connection label.
var validKinds = map[Kind]bool{
	ProbeLoss: true, LDNSOutage: true, LDNSChurn: true,
	CDNFreeze: true, CDNFlap: true, Congestion: true, ClockSkew: true,
	PacketLoss: true, PacketDup: true, PacketDelay: true, PacketReorder: true,
}

// pktKinds are the kinds applied by WrapPacketConn rather than by the
// simulation-level hooks.
var pktKinds = map[Kind]bool{
	PacketLoss: true, PacketDup: true, PacketDelay: true, PacketReorder: true,
}

// Duration is a time.Duration that marshals to/from the human-readable
// string form ("90s", "20m") so scenario scripts stay writable by hand.
// A bare JSON number is accepted as nanoseconds.
type Duration time.Duration

// MarshalJSON renders the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "90s"-style strings or nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("faults: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("faults: duration must be a string or integer nanoseconds: %s", b)
	}
	*d = Duration(ns)
	return nil
}

// D is shorthand for converting back to time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// Fault is one scripted fault.
type Fault struct {
	// Kind selects the fault class. Required.
	Kind Kind `json:"kind"`
	// Target scopes the fault. For host-scoped kinds it is a netsim region
	// code (e.g. "eu"); empty targets every host. For pkt-* kinds it is the
	// label given to WrapPacketConn; empty targets every wrapped conn.
	Target string `json:"target,omitempty"`
	// CDN scopes a cdn-freeze/cdn-flap fault to one CDN namespace in a
	// multi-CDN fleet: the fault only applies through the MapHookFor hook of
	// that namespace. Empty applies to every CDN (and is the only shape the
	// unnamed single-CDN member's hook sees).
	CDN string `json:"cdn,omitempty"`
	// Rate is the per-decision activation probability in (0,1] for the
	// probabilistic kinds (probe-loss, ldns-churn, pkt-loss/dup/reorder;
	// pkt-delay and congestion may use it to gate, default 1).
	Rate float64 `json:"rate,omitempty"`
	// ExtraMs is the added delay in milliseconds (congestion, pkt-delay).
	ExtraMs float64 `json:"extraMs,omitempty"`
	// Skew is the clock offset for clock-skew faults (may be negative).
	Skew Duration `json:"skew,omitempty"`
	// Period is the re-roll interval for ldns-churn identities and the
	// flap interval for cdn-flap. Zero means one draw for the whole window.
	Period Duration `json:"period,omitempty"`
	// Start and Stop bound the fault's active window on the virtual clock:
	// active while Start <= now < Stop. Stop zero means "never stops".
	Start Duration `json:"start,omitempty"`
	Stop  Duration `json:"stop,omitempty"`
}

// active reports whether the fault window covers virtual time at.
func (f *Fault) active(at time.Duration) bool {
	if at < f.Start.D() {
		return false
	}
	return f.Stop == 0 || at < f.Stop.D()
}

// validate checks one fault's parameters.
func (f *Fault) validate(i int) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("faults: fault %d (%s): %s", i, f.Kind, fmt.Sprintf(format, args...))
	}
	if !validKinds[f.Kind] {
		return fmt.Errorf("faults: fault %d: unknown kind %q", i, f.Kind)
	}
	if f.Stop != 0 && f.Stop.D() <= f.Start.D() {
		return bad("stop %v must be after start %v", f.Stop.D(), f.Start.D())
	}
	if f.Rate < 0 || f.Rate > 1 {
		return bad("rate %v outside [0,1]", f.Rate)
	}
	if f.CDN != "" && f.Kind != CDNFreeze && f.Kind != CDNFlap {
		return bad("cdn scope only applies to cdn-freeze and cdn-flap")
	}
	switch f.Kind {
	case ProbeLoss, LDNSChurn, PacketLoss, PacketDup, PacketReorder:
		if f.Rate == 0 {
			return bad("rate is required")
		}
	case Congestion:
		if f.ExtraMs <= 0 {
			return bad("extraMs must be positive")
		}
	case PacketDelay:
		if f.ExtraMs <= 0 {
			return bad("extraMs must be positive")
		}
	case ClockSkew:
		if f.Skew == 0 {
			return bad("skew is required")
		}
	case CDNFlap:
		if f.Period < 0 {
			return bad("period must be non-negative")
		}
	}
	return nil
}

// Scenario is a complete fault script. The seed decorrelates this
// scenario's injection decisions from the topology's own noise and from
// other scenarios.
type Scenario struct {
	Seed   uint64  `json:"seed"`
	Faults []Fault `json:"faults"`
}

// Validate checks every fault in the scenario.
func (s *Scenario) Validate() error {
	for i := range s.Faults {
		if err := s.Faults[i].validate(i); err != nil {
			return err
		}
	}
	return nil
}

// ParseScenario decodes and validates a JSON scenario script.
func ParseScenario(data []byte) (Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return Scenario{}, fmt.Errorf("faults: decode scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}
