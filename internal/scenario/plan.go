// Package scenario is the declarative load harness for the daemon mesh.
//
// Every workload the repo evaluated before this package existed was a
// bespoke Go loop inside cmd/crpbench; adding a scenario meant writing
// driver code. A scenario here is *data*: a JSON plan declaring node groups
// (clients, providers, bystanders — optionally prefix-structured so their
// observations feed the aggregation plane), per-group arrival processes
// (constant, diurnal, flash-crowd, mobile-with-LDNS-churn), per-group op
// mixes over the daemon protocol (observe / closest / topk / similarity /
// cluster, JSON or binary codec, optional ns scoping), a fault schedule
// reusing internal/faults.Scenario verbatim on the gossip links, and an
// Envelope of pass/fail gates. The runner stands up a real multi-daemon
// gossip mesh — deterministically in memory on the seeded virtual clock, or
// over real UDP sockets — and drives it at the declared rates.
//
// Determinism contract: everything the virtual clock and the seed control —
// arrival counts, op choices, identities, and on the mem transport the
// entire mesh execution — is a pure function of the plan, so the report's
// Det slice is byte-identical across same-seed reruns and CI gates on it.
// Wall-clock measurements (latency percentiles, achieved QPS) live in the
// Timing slice, which is never part of that gate.
package scenario

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"repro/crp"
	"repro/internal/faults"
	"repro/internal/peering"
)

// Group kinds.
const (
	// KindClients is a driven population whose ops count toward every
	// envelope gate.
	KindClients = "clients"
	// KindProviders is a seeded population: its nodes are observed into the
	// mesh before the clock starts and become the query-target pool for
	// driven groups on the same daemon. Providers take no arrival process.
	KindProviders = "providers"
	// KindBystanders is background load: driven like clients, metered like
	// clients, but exempt from the min-completed and latency gates.
	KindBystanders = "bystanders"
)

// Transports.
const (
	// TransportMem runs the mesh on the in-memory packet fabric with a
	// single-threaded pump and the virtual clock: fully deterministic,
	// including convergence rounds and snapshot bytes.
	TransportMem = "mem"
	// TransportUDP runs real daemons and gossip engines on loopback UDP
	// sockets with concurrent client workers: offered/completed counts stay
	// deterministic, timing and convergence latency do not.
	TransportUDP = "udp"
)

// Arrival process names.
const (
	ProcessConstant = "constant"
	ProcessDiurnal  = "diurnal"
	ProcessFlash    = "flash"
	ProcessMobile   = "mobile"
)

// Ops a group mix may weight. "closest" is a K=1 nearest query, "topk" the
// K=8 ranking, "cluster" the heavy SMF distinct-clusters query.
var planOps = map[string]bool{
	"observe": true, "closest": true, "topk": true,
	"similarity": true, "cluster": true,
}

// PlanError is a structured decode/validation failure naming the offending
// field, so a malformed plan points at exactly what to fix.
type PlanError struct {
	Field string
	Msg   string
}

func (e *PlanError) Error() string {
	return fmt.Sprintf("scenario: %s: %s", e.Field, e.Msg)
}

func planErr(field, format string, args ...any) error {
	return &PlanError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Spike is one flash-crowd burst: the group's base rate is multiplied by
// Factor while the virtual clock is inside [At, At+Width).
type Spike struct {
	At     faults.Duration `json:"at"`
	Width  faults.Duration `json:"width"`
	Factor float64         `json:"factor"`
}

// Arrival declares a driven group's arrival process on the virtual clock.
// Rates are ops per virtual second; every draw is a seeded hash, so the
// per-tick arrival sequence is a pure function of (plan seed, group).
type Arrival struct {
	// Process is one of constant, diurnal, flash, mobile.
	Process string `json:"process"`
	// Rate is the base rate (constant, flash, mobile), ops/second.
	Rate float64 `json:"rate,omitempty"`
	// Peak and Trough bound the diurnal sinusoid; the cycle starts at the
	// trough and peaks at Period/2.
	Peak   float64 `json:"peak,omitempty"`
	Trough float64 `json:"trough,omitempty"`
	// Period is the diurnal cycle length (default 24h), and for mobile the
	// LDNS re-home interval (default 1m).
	Period faults.Duration `json:"period,omitempty"`
	// Spikes are the flash-crowd bursts; windows must not overlap.
	Spikes []Spike `json:"spikes,omitempty"`
	// ChurnRate is the mobile per-member probability of re-homing onto a
	// different LDNS identity at each period boundary, among max(2, size/4)
	// identities.
	ChurnRate float64 `json:"churnRate,omitempty"`
}

// Group declares one node population.
type Group struct {
	// Name keys the group's scenario.group.<name>.* metrics. Required;
	// lowercase [a-z0-9-], at most 32 bytes, unique within the plan.
	Name string `json:"name"`
	// Kind is clients, providers or bystanders.
	Kind string `json:"kind"`
	// Size is the member population.
	Size int `json:"size"`
	// Home is the daemon index the group's traffic lands on.
	Home int `json:"home"`
	// Prefix, when set, is an IPv4 CIDR the member identities are drawn
	// from (dotted-quad node IDs), so the population is prefix-structured
	// and — with the plan's aggregateBits — feeds the aggregation plane.
	Prefix string `json:"prefix,omitempty"`
	// NS scopes the group's observations and queries to one CDN namespace.
	NS string `json:"ns,omitempty"`
	// Codec picks the group's wire codec: "json" (default) or "binary".
	Codec string `json:"codec,omitempty"`
	// Arrival drives clients/bystanders; providers must leave it empty.
	Arrival Arrival `json:"arrival,omitempty"`
	// Ops weights the group's op mix; weights are relative, not normalized.
	Ops map[string]float64 `json:"ops,omitempty"`
	// Probes is the providers' per-node probe count at seed time (default 8).
	Probes int `json:"probes,omitempty"`
	// Metros structures a provider population into that many metro areas
	// with shared dominant replicas, so SMF clustering has real structure
	// to find (default 8).
	Metros int `json:"metros,omitempty"`
	// Replicas is the replica-ID pool size observes draw from (default 12).
	Replicas int `json:"replicas,omitempty"`
}

// DriftPlan attaches the CDN-change detector (internal/drift) to the run:
// every Every ticks the runner snapshots daemon 0's compiled ratio-map
// stream and feeds the detector at drift.DefaultSensitivity, on the
// virtual clock. Mem transport only — the event sequence is part of the
// deterministic report slice, and only the virtual clock makes frame
// timing replayable.
type DriftPlan struct {
	// Every is the frame cadence in ticks (default 5).
	Every int `json:"every,omitempty"`
}

// Envelope declares the run's pass/fail gates. Zero-valued fields are not
// checked. Gates split into deterministic ones (error budget, completion
// floors, rate accuracy, convergence, snapshot match — reported in the Det
// slice) and timing ones (latency bounds — reported in the Timing slice).
type Envelope struct {
	// MaxErrorRate bounds errored/offered per client group. A pointer so an
	// explicit 0 ("no errors allowed") is distinguishable from unset.
	MaxErrorRate *float64 `json:"maxErrorRate,omitempty"`
	// MinCompleted is the per-client-group completed-op floor.
	MinCompleted int `json:"minCompleted,omitempty"`
	// MaxRateError bounds |offered-expected|/expected per driven group
	// (e.g. 0.05 = the declared QPS must be hit within 5%).
	MaxRateError float64 `json:"maxRateError,omitempty"`
	// RequireConverged demands the mesh reach identical shard digests.
	RequireConverged bool `json:"requireConverged,omitempty"`
	// MaxConvergeRounds bounds the mem-transport convergence round count
	// (implies RequireConverged).
	MaxConvergeRounds int `json:"maxConvergeRounds,omitempty"`
	// RequireSnapshotMatch demands every daemon's compiled snapshot
	// byte-equal a reference daemon fed the merged stream (mem transport).
	RequireSnapshotMatch bool `json:"requireSnapshotMatch,omitempty"`
	// MaxP99Ms bounds each client group's round-trip latency p99.
	MaxP99Ms float64 `json:"maxP99Ms,omitempty"`
	// MaxDriftEvents bounds the detector's fired alarms (requires the
	// plan's drift block). A pointer so an explicit 0 ("the workload must
	// not look like a CDN remap") is distinguishable from unset.
	MaxDriftEvents *int `json:"maxDriftEvents,omitempty"`
}

// Plan is one complete scenario.
type Plan struct {
	// Name labels the run in reports. Required.
	Name string `json:"name"`
	// Seed drives every random decision. Required (non-zero), so no plan
	// silently depends on an implicit default.
	Seed uint64 `json:"seed"`
	// Transport is mem (default) or udp.
	Transport string `json:"transport,omitempty"`
	// Daemons is the mesh size (default 3; 1 runs a single daemon with no
	// gossip plane).
	Daemons int `json:"daemons,omitempty"`
	// Duration is the driven window on the virtual clock: a positive
	// whole number of ticks. Required.
	Duration faults.Duration `json:"duration"`
	// Shards is every daemon's store width (default 64).
	Shards int `json:"shards,omitempty"`
	// AggregateBits, when non-zero, enables the prefix aggregation plane on
	// every daemon with /bits IPv4 grouping (crp.PrefixKeyFunc).
	AggregateBits int `json:"aggregateBits,omitempty"`
	// Drift, when present, runs the CDN-change detector against daemon
	// 0's compiled stream during the driven window (mem transport only).
	Drift *DriftPlan `json:"drift,omitempty"`
	// Groups is the node population. Required non-empty.
	Groups []Group `json:"groups"`
	// Faults is an internal/faults scenario applied verbatim to every
	// gossip link (WrapPacketConn label "gossip"). Only the pkt-* kinds
	// have a hook in a scenario run.
	Faults faults.Scenario `json:"faults,omitempty"`
	// Envelope is the pass/fail contract.
	Envelope Envelope `json:"envelope,omitempty"`
}

// Fixed run shape. No plan has needed other values, so they are not plan
// fields.
const (
	// tick is the virtual scheduling quantum.
	tick = time.Second
	// storeWindow is every daemon's probe window, the crpd default.
	storeWindow = 10
)

// Ticks is the driven tick count.
func (p *Plan) Ticks() int {
	return int(p.Duration.D() / tick)
}

// DecodePlan decodes and validates a JSON plan, applying defaults. Unknown
// fields are rejected — a typoed gate name must not silently become a
// no-op scenario.
func DecodePlan(data []byte) (*Plan, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, planErr("plan", "decode: %v", err)
	}
	if dec.More() {
		return nil, planErr("plan", "trailing data after the plan object")
	}
	p.setDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

func (p *Plan) setDefaults() {
	if p.Transport == "" {
		p.Transport = TransportMem
	}
	if p.Daemons == 0 {
		p.Daemons = 3
	}
	if p.Shards == 0 {
		p.Shards = 64
	}
	if p.Drift != nil && p.Drift.Every == 0 {
		p.Drift.Every = 5
	}
	for i := range p.Groups {
		g := &p.Groups[i]
		if g.Probes == 0 {
			g.Probes = 8
		}
		if g.Metros == 0 {
			g.Metros = 8
		}
		if g.Replicas == 0 {
			g.Replicas = 12
		}
		if g.Kind == KindClients || g.Kind == KindBystanders {
			a := &g.Arrival
			if a.Period == 0 {
				switch a.Process {
				case ProcessDiurnal:
					a.Period = faults.Duration(24 * time.Hour)
				case ProcessMobile:
					a.Period = faults.Duration(time.Minute)
				}
			}
		}
	}
}

// Validate checks the whole plan; the first failure wins and names its
// field.
func (p *Plan) Validate() error {
	if p.Name == "" {
		return planErr("name", "required")
	}
	if p.Seed == 0 {
		return planErr("seed", "required and non-zero: every scenario must declare its seed")
	}
	switch p.Transport {
	case TransportMem, TransportUDP:
	default:
		return planErr("transport", "unknown transport %q (want mem or udp)", p.Transport)
	}
	if p.Daemons < 1 {
		return planErr("daemons", "must be >= 1, got %d", p.Daemons)
	}
	if p.Duration <= 0 {
		return planErr("duration", "required and positive")
	}
	if p.Duration.D()%tick != 0 {
		return planErr("duration", "%v is not a whole number of %v ticks", p.Duration.D(), tick)
	}
	if p.Shards < 1 || p.Shards > peering.MaxShardCount {
		return planErr("shards", "must be in [1,%d], got %d", peering.MaxShardCount, p.Shards)
	}
	if p.AggregateBits < 0 || p.AggregateBits > 32 {
		return planErr("aggregateBits", "must be in [0,32], got %d", p.AggregateBits)
	}
	if p.Drift != nil {
		if p.Transport != TransportMem {
			return planErr("drift", "the detector's event sequence is only deterministic on the mem transport")
		}
		if p.Drift.Every < 1 {
			return planErr("drift.every", "must be >= 1 tick, got %d", p.Drift.Every)
		}
	}
	if len(p.Groups) == 0 {
		return planErr("groups", "at least one group is required")
	}
	seen := make(map[string]bool, len(p.Groups))
	for i := range p.Groups {
		if err := p.validateGroup(i, seen); err != nil {
			return err
		}
	}
	if err := p.Faults.Validate(); err != nil {
		return planErr("faults", "%v", err)
	}
	for i := range p.Faults.Faults {
		switch p.Faults.Faults[i].Kind {
		case faults.PacketLoss, faults.PacketDup, faults.PacketDelay, faults.PacketReorder:
		default:
			return planErr(fmt.Sprintf("faults.faults[%d].kind", i),
				"%q has no injection hook in a scenario run (only the pkt-* kinds apply, on the gossip links)",
				p.Faults.Faults[i].Kind)
		}
	}
	return p.validateEnvelope()
}

func (p *Plan) validateGroup(i int, seen map[string]bool) error {
	g := &p.Groups[i]
	field := func(sub string) string { return fmt.Sprintf("groups[%d].%s", i, sub) }
	if g.Name == "" {
		return planErr(field("name"), "required")
	}
	if len(g.Name) > 32 {
		return planErr(field("name"), "%q exceeds 32 bytes", g.Name)
	}
	for _, c := range []byte(g.Name) {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return planErr(field("name"), "%q: only [a-z0-9-] allowed (it keys metric names)", g.Name)
		}
	}
	if seen[g.Name] {
		return planErr(field("name"), "duplicate group name %q", g.Name)
	}
	seen[g.Name] = true
	switch g.Kind {
	case KindClients, KindProviders, KindBystanders:
	default:
		return planErr(field("kind"), "unknown group kind %q (want clients, providers or bystanders)", g.Kind)
	}
	if g.Size <= 0 {
		return planErr(field("size"), "must be positive, got %d", g.Size)
	}
	if g.Home < 0 || g.Home >= p.Daemons {
		return planErr(field("home"), "daemon index %d outside [0,%d)", g.Home, p.Daemons)
	}
	if g.Prefix != "" {
		pfx, err := netip.ParsePrefix(g.Prefix)
		if err != nil {
			return planErr(field("prefix"), "%v", err)
		}
		if !pfx.Addr().Is4() {
			return planErr(field("prefix"), "%q is not IPv4", g.Prefix)
		}
		if pfx.Bits() > 30 {
			return planErr(field("prefix"), "/%d leaves no member addresses (need <= /30)", pfx.Bits())
		}
	}
	if g.NS != "" {
		if err := crp.Namespace(g.NS).Valid(); err != nil {
			return planErr(field("ns"), "%v", err)
		}
	}
	switch g.Codec {
	case "", "json", "binary":
	default:
		return planErr(field("codec"), "unknown codec %q (want json or binary)", g.Codec)
	}
	if g.Probes < 0 {
		return planErr(field("probes"), "must be non-negative")
	}
	if g.Metros <= 0 {
		return planErr(field("metros"), "must be positive")
	}
	if g.Replicas <= 0 {
		return planErr(field("replicas"), "must be positive")
	}

	if g.Kind == KindProviders {
		if g.Arrival.Process != "" {
			return planErr(field("arrival.process"), "providers are seeded, not driven: no arrival process")
		}
		if len(g.Ops) != 0 {
			return planErr(field("ops"), "providers are seeded, not driven: no op mix")
		}
		return nil
	}
	if err := p.validateArrival(i, g); err != nil {
		return err
	}
	if len(g.Ops) == 0 {
		return planErr(field("ops"), "a driven group needs an op mix")
	}
	total := 0.0
	for op, w := range g.Ops {
		if !planOps[op] {
			return planErr(field("ops."+op), "unknown op (want observe, closest, topk, similarity or cluster)")
		}
		if w < 0 {
			return planErr(field("ops."+op), "negative weight %v", w)
		}
		total += w
	}
	if total <= 0 {
		return planErr(field("ops"), "op weights sum to zero")
	}
	return nil
}

func (p *Plan) validateArrival(i int, g *Group) error {
	a := &g.Arrival
	field := func(sub string) string { return fmt.Sprintf("groups[%d].arrival.%s", i, sub) }
	switch a.Process {
	case ProcessConstant, ProcessFlash, ProcessMobile:
		if a.Rate <= 0 {
			return planErr(field("rate"), "must be positive, got %v", a.Rate)
		}
		if a.Peak != 0 || a.Trough != 0 {
			return planErr(field("peak"), "peak/trough only apply to the diurnal process")
		}
	case ProcessDiurnal:
		if a.Trough < 0 {
			return planErr(field("trough"), "negative rate %v", a.Trough)
		}
		if a.Peak <= 0 || a.Peak < a.Trough {
			return planErr(field("peak"), "need peak >= trough > 0 shape, got peak %v trough %v", a.Peak, a.Trough)
		}
		if a.Rate != 0 {
			return planErr(field("rate"), "diurnal rate comes from peak/trough, not rate")
		}
		if a.Period <= 0 {
			return planErr(field("period"), "must be positive")
		}
	case "":
		return planErr(field("process"), "required for a driven group")
	default:
		return planErr(field("process"), "unknown arrival process %q (want constant, diurnal, flash or mobile)", a.Process)
	}
	if a.Process != ProcessFlash && len(a.Spikes) > 0 {
		return planErr(field("spikes"), "spikes only apply to the flash process")
	}
	for j, s := range a.Spikes {
		sf := func(sub string) string { return fmt.Sprintf("groups[%d].arrival.spikes[%d].%s", i, j, sub) }
		if s.Width <= 0 {
			return planErr(sf("width"), "must be positive")
		}
		if s.At < 0 {
			return planErr(sf("at"), "must be non-negative")
		}
		if s.Factor <= 1 {
			return planErr(sf("factor"), "must exceed 1, got %v", s.Factor)
		}
		for k := 0; k < j; k++ {
			prev := a.Spikes[k]
			if s.At.D() < prev.At.D()+prev.Width.D() && prev.At.D() < s.At.D()+s.Width.D() {
				return planErr(sf("at"), "window [%v,%v) overlaps spikes[%d] [%v,%v)",
					s.At.D(), s.At.D()+s.Width.D(), k, prev.At.D(), prev.At.D()+prev.Width.D())
			}
		}
	}
	if a.Process == ProcessMobile {
		if a.ChurnRate < 0 || a.ChurnRate > 1 {
			return planErr(field("churnRate"), "outside [0,1]: %v", a.ChurnRate)
		}
		if a.Period <= 0 {
			return planErr(field("period"), "must be positive")
		}
	}
	return nil
}

func (p *Plan) validateEnvelope() error {
	e := &p.Envelope
	if e.MaxErrorRate != nil && (*e.MaxErrorRate < 0 || *e.MaxErrorRate > 1) {
		return planErr("envelope.maxErrorRate", "outside [0,1]: %v", *e.MaxErrorRate)
	}
	if e.MinCompleted < 0 {
		return planErr("envelope.minCompleted", "must be non-negative")
	}
	if e.MaxRateError < 0 {
		return planErr("envelope.maxRateError", "must be non-negative")
	}
	if e.MaxP99Ms < 0 {
		return planErr("envelope.maxP99Ms", "must be non-negative")
	}
	if e.MaxConvergeRounds < 0 {
		return planErr("envelope.maxConvergeRounds", "must be non-negative")
	}
	if p.Daemons == 1 && (e.RequireSnapshotMatch || e.MaxConvergeRounds > 0) {
		return planErr("envelope.requireSnapshotMatch", "meaningless with a single daemon (no mesh to converge)")
	}
	if p.Transport == TransportUDP {
		if e.MaxConvergeRounds > 0 {
			return planErr("envelope.maxConvergeRounds", "round counts are only deterministic on the mem transport")
		}
		if e.RequireSnapshotMatch {
			return planErr("envelope.requireSnapshotMatch", "snapshot bytes are only deterministic on the mem transport")
		}
	}
	if e.RequireSnapshotMatch && p.AggregateBits > 0 {
		return planErr("envelope.requireSnapshotMatch", "aggregated observations are local ingest compaction and never enter snapshots")
	}
	if e.MaxDriftEvents != nil {
		if *e.MaxDriftEvents < 0 {
			return planErr("envelope.maxDriftEvents", "must be non-negative")
		}
		if p.Drift == nil {
			return planErr("envelope.maxDriftEvents", "requires the plan's drift block (nothing runs the detector otherwise)")
		}
	}
	return nil
}
