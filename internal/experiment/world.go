// Package experiment reproduces the CRP paper's evaluation (§V–§VI): the
// closest-node selection comparison against Meridian (Figs. 4–5), the
// clustering study against ASN-based clustering (Table I, Figs. 6–7), the
// probe-interval and window-size sensitivity studies (Figs. 8–9), and this
// repository's additional ablations and sweeps (faults, fusion, drift). Every
// study runs on one World — topology and latency model (netsim), a CDN fleet
// answering redirections (cdn), ground-truth RTTs — probed, measured and
// ordered by the three operations this file owns.
package experiment

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/crp"
	"repro/internal/cdn"
	"repro/internal/faults"
	"repro/internal/meridian"
	"repro/internal/netsim"
)

// WorldParams sizes an evaluation world. The defaults mirror the paper:
// 1,000 client DNS servers, 240 consistently-active candidate (PlanetLab)
// servers, and a CDN deployment with realistic coverage skew.
type WorldParams struct {
	Seed          int64
	NumClients    int
	NumCandidates int
	NumReplicas   int
	// MeridianFailures enables, in the paper world's overlay, the PlanetLab
	// pathologies the paper observed (self-recommending bootstrappers, nodes
	// that never join, partitioned sites).
	MeridianFailures bool
	// KeepFallbackAnswers disables the paper's §VI filtering rule. By
	// default, redirections to the CDN's distant global-default servers
	// (Akamai's "owned-domain" answers) are dropped from ratio maps, since
	// they carry no positioning information and create spurious similarity
	// between far-apart hosts.
	KeepFallbackAnswers bool
}

// DefaultWorldParams returns the paper-scale configuration.
func DefaultWorldParams() WorldParams {
	return WorldParams{
		Seed:             1,
		NumClients:       1000,
		NumCandidates:    240,
		NumReplicas:      600,
		MeridianFailures: true,
	}
}

// epoch anchors the conversion between the simulator's virtual durations and
// the wall-clock time.Time values the public crp API uses: the paper's first
// day.
var epoch = time.Date(2006, 11, 12, 0, 0, 0, 0, time.UTC)

// World is a built evaluation environment: a seeded topology, the CDN fleet
// redirecting over it, and the client and candidate populations.
type World struct {
	Params     WorldParams
	Topo       *netsim.Topology
	Fleet      *cdn.Fleet
	Clients    []netsim.HostID
	Candidates []netsim.HostID

	// faults, when non-nil, is the attached fault-injection plane. Probe
	// consults it; the topology and the fleet consult it through their own
	// injected hooks (see AttachFaults).
	faults *faults.Plane
}

// NewWorld generates the topology and deploys the fleet over it,
// deterministically in p.Seed. No members means the paper's single unnamed
// CDN, whose replica IDs stay bare; named members qualify theirs.
func NewWorld(p WorldParams, members ...cdn.Config) (*World, error) {
	tp := netsim.DefaultParams()
	tp.Seed = p.Seed
	if p.NumClients > 0 {
		tp.NumClients = p.NumClients
	}
	if p.NumCandidates > 0 {
		tp.NumCandidates = p.NumCandidates
	}
	if p.NumReplicas > 0 {
		tp.NumReplicas = p.NumReplicas
	}
	topo, err := netsim.Generate(tp)
	if err != nil {
		return nil, fmt.Errorf("generate topology: %w", err)
	}
	if len(members) == 0 {
		members = []cdn.Config{{}}
	}
	fleet, err := cdn.NewFleet(topo, members)
	if err != nil {
		return nil, fmt.Errorf("deploy cdn: %w", err)
	}
	return &World{
		Params:     p,
		Topo:       topo,
		Fleet:      fleet,
		Clients:    topo.Clients(),
		Candidates: topo.Candidates(),
	}, nil
}

// PaperWorld is the world of the paper's own figures: the single unnamed CDN
// plus the Meridian overlay CRP is compared against.
type PaperWorld struct {
	*World
	Meridian *meridian.Overlay
}

// Failure-injection rates matching the handful of pathological nodes the
// paper reports among 240 members.
const (
	meridianSelfishFraction = 0.02
	meridianDeadFraction    = 0.015
	meridianPartitionPairs  = 2
)

// NewPaperWorld builds the single-CDN world and the Meridian overlay over
// its candidates.
func NewPaperWorld(p WorldParams) (*PaperWorld, error) {
	s, err := NewWorld(p)
	if err != nil {
		return nil, err
	}
	mcfg := meridian.Config{Topo: s.Topo, Members: s.Candidates, Seed: p.Seed}
	if p.MeridianFailures {
		mcfg.SelfishFraction = meridianSelfishFraction
		mcfg.DeadFraction = meridianDeadFraction
		mcfg.PartitionPairs = meridianPartitionPairs
	}
	overlay, err := meridian.Build(mcfg)
	if err != nil {
		return nil, fmt.Errorf("build meridian overlay: %w", err)
	}
	return &PaperWorld{World: s, Meridian: overlay}, nil
}

// AttachFaults installs a fault plane across every layer of the world: the
// topology's latency model (congestion storms, clock skew), each fleet
// member's mapping system (freezes, flaps, scoped by namespace) and the probe
// path (probe loss, LDNS outage and churn). Passing nil detaches. Runs with
// the same world, seed and plane are bit-reproducible.
func (s *World) AttachFaults(p *faults.Plane) {
	s.faults = p
	if p == nil {
		s.Topo.SetPerturb(nil)
		for _, m := range s.Fleet.Members() {
			m.SetMapHook(nil)
		}
		return
	}
	s.Topo.SetPerturb(p)
	for _, m := range s.Fleet.Members() {
		m.SetMapHook(p.MapHookFor(m.Namespace()))
	}
}

// NodeID returns the crp node identity of a host (its DNS name).
func (s *World) NodeID(id netsim.HostID) crp.NodeID {
	return crp.NodeID(s.Topo.Host(id).Name)
}

// nodeIDs returns the crp node identities of hosts, in order.
func (s *World) nodeIDs(hosts []netsim.HostID) []crp.NodeID {
	out := make([]crp.NodeID, len(hosts))
	for i, h := range hosts {
		out[i] = s.NodeID(h)
	}
	return out
}

// HostOf resolves a crp node identity back to its host.
func (s *World) HostOf(node crp.NodeID) (netsim.HostID, bool) {
	return s.Topo.HostByName(string(node))
}

// ReplicaID returns the crp replica identity of a replica host.
func (s *World) ReplicaID(id netsim.HostID) crp.ReplicaID {
	return crp.ReplicaID(s.Topo.Host(id).Name)
}

// At converts a virtual duration to the wall-clock time.Time used by the
// public crp API.
func (s *World) At(d time.Duration) time.Time { return epoch.Add(d) }

// AllMembers is Probe's pick for a step that resolves every fleet member.
const AllMembers = -1

// Lookup is one DNS resolution of a probe step that survived filtering.
type Lookup struct {
	// NS is the answering member's namespace ("" for the unnamed CDN).
	NS string
	// At is the observation time on the probing host's own clock.
	At time.Time
	// IDs are the answer's replica identities, namespace-qualified for named
	// members; never empty.
	IDs []crp.ReplicaID
}

// Probe runs one probe step for host at virtual time at: it resolves every
// name of fleet member pick (every member with AllMembers) and hands fn each
// resolution that still carries replicas after the §VI fallback filter. With
// a fault plane attached the step may be lost outright (DNS timeout, LDNS
// outage: fn is never called), issued through a churned LDNS identity, or
// stamped with the host's skewed clock, clamped at the epoch.
func (s *World) Probe(host netsim.HostID, at time.Duration, pick int, fn func(Lookup) error) error {
	ldns, obsAt := host, at
	if s.faults != nil {
		if s.faults.ProbeLost(host, at) {
			return nil
		}
		ldns = s.faults.ResolverFor(host, at)
		obsAt = max(at+s.faults.ClockSkew(host, at), 0)
	}
	for mi, m := range s.Fleet.Members() {
		if pick != AllMembers && mi != pick {
			continue
		}
		ns := crp.Namespace(m.Namespace())
		for _, name := range m.Names() {
			replicas, err := m.Redirect(name, ldns, at)
			if err != nil {
				return fmt.Errorf("redirect %q under %q for host %d: %w", name, ns, host, err)
			}
			ids := make([]crp.ReplicaID, 0, len(replicas))
			for _, r := range replicas {
				if !s.Params.KeepFallbackAnswers && m.IsFallback(r) {
					continue
				}
				ids = append(ids, crp.Qualify(ns, s.ReplicaID(r)))
			}
			if len(ids) == 0 {
				continue
			}
			if err := fn(Lookup{NS: m.Namespace(), At: s.At(obsAt), IDs: ids}); err != nil {
				return err
			}
		}
	}
	return nil
}

// lookupsPerStep is how many resolutions one AllMembers probe step issues.
func (s *World) lookupsPerStep() int {
	n := 0
	for _, m := range s.Fleet.Members() {
		n += len(m.Names())
	}
	return n
}

// ProbeSchedule describes how a host's redirection history is collected.
type ProbeSchedule struct {
	Start    time.Duration // virtual time of the first probe
	Interval time.Duration // time between probes
	Probes   int           // number of probes
	Window   int           // tracker window in probes; 0 = all probes
}

// Validate checks the schedule.
func (ps ProbeSchedule) Validate() error {
	if ps.Interval <= 0 {
		return errors.New("experiment: probe interval must be positive")
	}
	if ps.Probes <= 0 {
		return errors.New("experiment: probe count must be positive")
	}
	return nil
}

// End returns the virtual time just after the last probe.
func (ps ProbeSchedule) End() time.Duration {
	return ps.Start + time.Duration(ps.Probes-1)*ps.Interval
}

// CollectService probes the fleet on behalf of each host in turn according
// to the schedule and returns a service holding their redirection
// histories. Each probe step resolves every CDN name once (the paper drives
// CRP with two Akamai-hosted names), and each resolution is observed as one
// tracker probe, so a window is sized in steps. A host none of whose
// lookups survived is not in the service: its queries fail with
// crp.ErrUnknownNode.
func (s *World) CollectService(hosts []netsim.HostID, ps ProbeSchedule) (*crp.Service, error) {
	if err := ps.Validate(); err != nil {
		return nil, err
	}
	svc := s.newService(ps)
	if err := s.feed(hosts, ps, svc); err != nil {
		return nil, err
	}
	return svc, nil
}

// newService returns an empty service whose tracker window is the
// schedule's, sized in lookups: every probe step resolves all names.
func (s *World) newService(ps ProbeSchedule) *crp.Service {
	if ps.Window > 0 {
		return crp.NewService(crp.WithWindow(ps.Window * s.lookupsPerStep()))
	}
	return crp.NewService()
}

// feed runs the schedule's probe steps for each host in turn and observes
// every lookup into each of svcs, so one probe pass — one draw of every
// fault decision — fills several services.
func (s *World) feed(hosts []netsim.HostID, ps ProbeSchedule, svcs ...*crp.Service) error {
	for _, h := range hosts {
		node := s.NodeID(h)
		for i := 0; i < ps.Probes; i++ {
			err := s.Probe(h, ps.Start+time.Duration(i)*ps.Interval, AllMembers, func(l Lookup) error {
				for _, svc := range svcs {
					if err := svc.Observe(node, l.At, l.IDs...); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// CollectRatioMaps collects ratio maps for a set of hosts under one
// schedule. A host with no lookup gets a nil (empty) map.
func (s *World) CollectRatioMaps(hosts []netsim.HostID, ps ProbeSchedule) (map[netsim.HostID]crp.RatioMap, error) {
	svc, err := s.CollectService(hosts, ps)
	if err != nil {
		return nil, err
	}
	out := make(map[netsim.HostID]crp.RatioMap, len(hosts))
	for _, h := range hosts {
		m, err := svc.RatioMap(s.NodeID(h))
		if err != nil && !errors.Is(err, crp.ErrUnknownNode) {
			return nil, err
		}
		out[h] = m
	}
	return out, nil
}

// TruthRTTMs returns the experiment's ground-truth RTT between two hosts at
// virtual time at: the mean of several closely spaced true RTT samples,
// smoothing out single-instant congestion spikes the way the paper's
// repeated King measurements do.
func (s *World) TruthRTTMs(a, b netsim.HostID, at time.Duration) float64 {
	const samples = 3
	const spacing = 2 * time.Minute
	sum := 0.0
	for i := 0; i < samples; i++ {
		sum += s.Topo.RTTMs(a, b, at+time.Duration(i)*spacing)
	}
	return sum / samples
}

// TruthOrder is the ground-truth ordering of the candidates for one client:
// the yardstick every closest-node pick is ranked against.
type TruthOrder struct {
	// Hosts are the candidates closest-first; RTT ties break on host ID.
	Hosts []netsim.HostID
	// RTT is each candidate's TruthRTTMs from the client.
	RTT map[netsim.HostID]float64
}

// TruthOrder computes the true RTT ordering of the world's candidates for
// client at virtual time at.
func (s *World) TruthOrder(client netsim.HostID, at time.Duration) *TruthOrder {
	o := &TruthOrder{
		Hosts: append([]netsim.HostID(nil), s.Candidates...),
		RTT:   make(map[netsim.HostID]float64, len(s.Candidates)),
	}
	for _, c := range o.Hosts {
		o.RTT[c] = s.TruthRTTMs(client, c, at)
	}
	sort.Slice(o.Hosts, func(i, j int) bool {
		a, b := o.Hosts[i], o.Hosts[j]
		if o.RTT[a] != o.RTT[b] {
			return o.RTT[a] < o.RTT[b]
		}
		return a < b
	})
	return o
}

// Rank returns the 0-based position of h in the ordering (0 = optimal), or
// the candidate count when h is not a candidate.
func (o *TruthOrder) Rank(h netsim.HostID) int {
	for i, c := range o.Hosts {
		if c == h {
			return i
		}
	}
	return len(o.Hosts)
}
