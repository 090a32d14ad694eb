// Package netsim provides a deterministic wide-area Internet simulator: a
// geographic topology of hosts grouped into metros and autonomous systems,
// and a latency model with stable, diurnal and noisy components. It stands in
// for the live Internet used by the CRP paper's evaluation (PlanetLab nodes,
// King data-set DNS servers, Akamai's network view).
package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/netip"
	"sort"
	"sync/atomic"
	"time"
)

// HostID identifies a host within a Topology. IDs are dense: they index the
// Topology's host table.
type HostID int

// ASN is an autonomous-system number.
type ASN uint32

// HostKind distinguishes the roles hosts play in an experiment.
type HostKind int

const (
	// KindReplica is a CDN replica server (an Akamai-like edge node).
	KindReplica HostKind = iota + 1
	// KindCandidate is a candidate server for closest-node selection
	// (the paper uses Meridian-running PlanetLab nodes).
	KindCandidate
	// KindClient is a client host; per the paper's methodology clients are
	// recursive DNS servers that double as their own LDNS.
	KindClient
)

func (k HostKind) String() string {
	switch k {
	case KindReplica:
		return "replica"
	case KindCandidate:
		return "candidate"
	case KindClient:
		return "client"
	default:
		return fmt.Sprintf("HostKind(%d)", int(k))
	}
}

// Host is a network endpoint in the simulated topology.
type Host struct {
	ID     HostID
	Kind   HostKind
	Name   string // fully-qualified synthetic DNS name, e.g. "c0042.client.sim."
	Addr   netip.Addr
	Coord  Coord
	ASN    ASN
	Region string
	Metro  int // metro ID

	// AccessRTTMs is the host's last-mile contribution to the RTT of any
	// path through it (both directions combined).
	AccessRTTMs float64
	// CongestionAmpMs is the peak of the host's diurnal congestion swing.
	CongestionAmpMs float64
	// LDNS is the host's local DNS resolver. Clients in the paper's
	// methodology are DNS servers themselves, so this defaults to the
	// host's own ID.
	LDNS HostID
}

// AS is an autonomous system: a set of address prefixes homed at one or more
// metros.
type AS struct {
	ASN      ASN
	Region   string
	Metros   []int
	Prefixes []netip.Prefix
}

// Params configures topology generation.
type Params struct {
	Seed          int64
	NumClients    int
	NumCandidates int
	NumReplicas   int
	// LocalASesPerMetro is how many single-metro ISPs each metro hosts.
	LocalASesPerMetro int
	// BackboneASes is how many multi-metro ASes to create. Backbone ASes
	// make ASN-based clustering coarse, as observed in the paper.
	BackboneASes int
	// PoPMetroFraction is the fraction of each region's metros (largest
	// first) that host CDN points of presence. Real CDNs deploy in major
	// peering locations, not every city, so clients in minor metros are
	// served from — and share redirections with — the nearest major metro.
	// Defaults to 0.5 when zero.
	PoPMetroFraction float64
	Regions          []Region
}

// DefaultParams mirrors the paper's evaluation scale: 1,000 client DNS
// servers, 240 active candidate servers, and a CDN deployment large enough
// that each client sees a small (<20) set of nearby replicas.
func DefaultParams() Params {
	return Params{
		Seed:              1,
		NumClients:        1000,
		NumCandidates:     240,
		NumReplicas:       600,
		LocalASesPerMetro: 5,
		BackboneASes:      20,
		PoPMetroFraction:  0.5,
		Regions:           DefaultRegions(),
	}
}

// Topology is an immutable generated network. All methods are safe for
// concurrent use.
type Topology struct {
	params Params
	seed   uint64

	metros []Metro
	ases   []*AS
	asByN  map[ASN]*AS

	hosts      []*Host
	replicas   []HostID
	candidates []HostID
	clients    []HostID

	byName map[string]HostID

	// perturb holds the optional Perturb (wrapped in perturbBox) consulted
	// by the time-varying latency model. See SetPerturb.
	perturb atomic.Value
}

// Generate builds a topology from p. Generation is deterministic in p.
func Generate(p Params) (*Topology, error) {
	if p.NumClients < 0 || p.NumCandidates < 0 || p.NumReplicas < 0 {
		return nil, errors.New("netsim: negative host count")
	}
	if len(p.Regions) == 0 {
		return nil, errors.New("netsim: no regions")
	}
	if p.LocalASesPerMetro <= 0 {
		return nil, errors.New("netsim: LocalASesPerMetro must be positive")
	}
	if p.PoPMetroFraction == 0 {
		p.PoPMetroFraction = 0.5
	}
	if p.PoPMetroFraction < 0 || p.PoPMetroFraction > 1 {
		return nil, errors.New("netsim: PoPMetroFraction outside (0,1]")
	}
	for _, r := range p.Regions {
		if r.Metros <= 0 {
			return nil, fmt.Errorf("netsim: region %q has no metros", r.Name)
		}
		if r.LatMin >= r.LatMax || r.LonMin >= r.LonMax {
			return nil, fmt.Errorf("netsim: region %q has an empty bounding box", r.Name)
		}
	}

	t := &Topology{
		params: p,
		seed:   uint64(p.Seed),
		asByN:  make(map[ASN]*AS),
		byName: make(map[string]HostID),
	}
	rng := rand.New(rand.NewPCG(uint64(p.Seed), 0x9e3779b97f4a7c15))

	t.generateMetros(rng)
	if err := t.generateASes(rng); err != nil {
		return nil, err
	}
	if err := t.generateHosts(rng); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Topology) generateMetros(rng *rand.Rand) {
	id := 0
	for _, r := range t.params.Regions {
		for i := 0; i < r.Metros; i++ {
			c := Coord{
				Lat: r.LatMin + rng.Float64()*(r.LatMax-r.LatMin),
				Lon: r.LonMin + rng.Float64()*(r.LonMax-r.LonMin),
			}
			// Zipf-like metro sizes: the first metros of each region are the
			// large population centers.
			w := 1 / math.Pow(float64(i+1), 0.7)
			t.metros = append(t.metros, Metro{ID: id, Region: r.Name, Center: c, Weight: w})
			id++
		}
	}
}

func (t *Topology) generateASes(rng *rand.Rand) error {
	alloc := newAddrAllocator()
	next := ASN(64512) // private-use ASN range, same spirit as 10/8 addresses

	newAS := func(region string, metros []int) (*AS, error) {
		as := &AS{ASN: next, Region: region, Metros: metros}
		next++
		nPrefix := 1 + rng.IntN(3)
		for i := 0; i < nPrefix; i++ {
			bits := 18 + rng.IntN(5) // /18 .. /22
			pfx, err := alloc.allocPrefix(bits)
			if err != nil {
				return nil, err
			}
			as.Prefixes = append(as.Prefixes, pfx)
		}
		t.ases = append(t.ases, as)
		t.asByN[as.ASN] = as
		return as, nil
	}

	// Local single-metro ISPs.
	for mi := range t.metros {
		m := &t.metros[mi]
		for i := 0; i < t.params.LocalASesPerMetro; i++ {
			as, err := newAS(m.Region, []int{m.ID})
			if err != nil {
				return err
			}
			m.ASNs = append(m.ASNs, as.ASN)
		}
	}

	// Backbone ASes spanning several metros (usually within one region,
	// sometimes across regions). Nodes of one backbone AS can be thousands
	// of km apart, which is what makes pure ASN clustering low quality.
	for i := 0; i < t.params.BackboneASes; i++ {
		span := 2 + rng.IntN(3)
		var metros []int
		if rng.Float64() < 0.75 {
			// Intra-region backbone: pick metros from one region.
			region := t.params.Regions[rng.IntN(len(t.params.Regions))]
			candidates := t.metrosInRegion(region.Name)
			for len(metros) < span && len(candidates) > 0 {
				j := rng.IntN(len(candidates))
				metros = append(metros, candidates[j])
				candidates = append(candidates[:j], candidates[j+1:]...)
			}
		} else {
			// Transit backbone: metros anywhere.
			for len(metros) < span {
				metros = append(metros, rng.IntN(len(t.metros)))
			}
		}
		if len(metros) == 0 {
			continue
		}
		as, err := newAS(t.metros[metros[0]].Region, metros)
		if err != nil {
			return err
		}
		for _, mid := range metros {
			t.metros[mid].ASNs = append(t.metros[mid].ASNs, as.ASN)
		}
	}
	return nil
}

func (t *Topology) metrosInRegion(region string) []int {
	var out []int
	for _, m := range t.metros {
		if m.Region == region {
			out = append(out, m.ID)
		}
	}
	return out
}

// hostSpec bundles the per-kind generation knobs.
type hostSpec struct {
	kind       HostKind
	count      int
	weightOf   func(Region) float64
	scatterDeg float64 // gaussian scatter around the metro center
	namePrefix string
	// popOnly restricts placement to each region's PoP metros (the largest
	// ones) — used for CDN replicas.
	popOnly    bool
	access     func(rng *rand.Rand) float64
	congestion func(rng *rand.Rand) float64
}

func (t *Topology) generateHosts(rng *rand.Rand) error {
	specs := []hostSpec{
		{
			kind: KindReplica, count: t.params.NumReplicas,
			weightOf:   func(r Region) float64 { return r.ReplicaWeight },
			scatterDeg: 0.15, namePrefix: "r", popOnly: true,
			// Replica servers sit in ISP PoPs: short, stable access paths.
			access:     func(rng *rand.Rand) float64 { return 0.4 + rng.Float64()*1.6 },
			congestion: func(rng *rand.Rand) float64 { return rng.Float64() * 3 },
		},
		{
			kind: KindCandidate, count: t.params.NumCandidates,
			weightOf:   func(r Region) float64 { return r.CandidateWeight },
			scatterDeg: 0.35, namePrefix: "s",
			// Candidate servers are university-hosted (PlanetLab-like).
			access:     func(rng *rand.Rand) float64 { return 1 + rng.Float64()*5 },
			congestion: func(rng *rand.Rand) float64 { return rng.Float64() * 8 },
		},
		{
			kind: KindClient, count: t.params.NumClients,
			weightOf:   func(r Region) float64 { return r.HostWeight },
			scatterDeg: 0.6, namePrefix: "c",
			// Clients are broadly distributed DNS servers with varied
			// last-mile quality.
			access:     func(rng *rand.Rand) float64 { return 2 + rng.ExpFloat64()*6 },
			congestion: func(rng *rand.Rand) float64 { return rng.Float64() * 14 },
		},
	}

	// Per-AS counter for address assignment.
	hostIdx := make(map[ASN]int)

	for _, spec := range specs {
		for i := 0; i < spec.count; i++ {
			region := pickRegion(rng, t.params.Regions, spec.weightOf)
			metro := t.pickMetro(rng, region.Name, spec.popOnly)
			asn := metro.ASNs[rng.IntN(len(metro.ASNs))]
			as := t.asByN[asn]

			pfx := as.Prefixes[rng.IntN(len(as.Prefixes))]
			addr, err := hostAddr(pfx, hostIdx[asn])
			if err != nil {
				return fmt.Errorf("assign address in AS%d: %w", asn, err)
			}
			hostIdx[asn]++

			id := HostID(len(t.hosts))
			access := spec.access(rng)
			if access > 45 {
				access = 45
			}
			h := &Host{
				ID:     id,
				Kind:   spec.kind,
				Name:   fmt.Sprintf("%s%04d.%s.sim.", spec.namePrefix, i, spec.kind),
				Addr:   addr,
				ASN:    asn,
				Region: region.Name,
				Metro:  metro.ID,
				Coord: Coord{
					Lat: clampLat(metro.Center.Lat + rng.NormFloat64()*spec.scatterDeg),
					Lon: wrapLon(metro.Center.Lon + rng.NormFloat64()*spec.scatterDeg),
				},
				AccessRTTMs:     access,
				CongestionAmpMs: spec.congestion(rng),
				LDNS:            id, // self, per the paper's methodology
			}
			t.hosts = append(t.hosts, h)
			t.byName[h.Name] = id
			switch spec.kind {
			case KindReplica:
				t.replicas = append(t.replicas, id)
			case KindCandidate:
				t.candidates = append(t.candidates, id)
			case KindClient:
				t.clients = append(t.clients, id)
			}
		}
	}
	return nil
}

func pickRegion(rng *rand.Rand, regions []Region, weightOf func(Region) float64) Region {
	total := 0.0
	for _, r := range regions {
		total += weightOf(r)
	}
	x := rng.Float64() * total
	for _, r := range regions {
		x -= weightOf(r)
		if x < 0 {
			return r
		}
	}
	return regions[len(regions)-1]
}

func (t *Topology) pickMetro(rng *rand.Rand, region string, popOnly bool) *Metro {
	ids := t.metrosInRegion(region)
	if popOnly {
		// Metros are generated in descending-weight order per region, so
		// the PoP metros are the leading ones.
		k := (len(ids)*int(t.params.PoPMetroFraction*100) + 99) / 100
		if k < 1 {
			k = 1
		}
		if k < len(ids) {
			ids = ids[:k]
		}
	}
	total := 0.0
	for _, id := range ids {
		total += t.metros[id].Weight
	}
	x := rng.Float64() * total
	for _, id := range ids {
		x -= t.metros[id].Weight
		if x < 0 {
			return &t.metros[id]
		}
	}
	return &t.metros[ids[len(ids)-1]]
}

// Host returns the host with the given ID, or nil if out of range.
func (t *Topology) Host(id HostID) *Host {
	if id < 0 || int(id) >= len(t.hosts) {
		return nil
	}
	return t.hosts[id]
}

// NumHosts returns the total number of hosts of all kinds.
func (t *Topology) NumHosts() int { return len(t.hosts) }

// Replicas returns the IDs of all CDN replica servers.
func (t *Topology) Replicas() []HostID { return copyIDs(t.replicas) }

// Candidates returns the IDs of all candidate servers.
func (t *Topology) Candidates() []HostID { return copyIDs(t.candidates) }

// Clients returns the IDs of all client hosts.
func (t *Topology) Clients() []HostID { return copyIDs(t.clients) }

// HostByName resolves a synthetic DNS name to a host ID.
func (t *Topology) HostByName(name string) (HostID, bool) {
	id, ok := t.byName[name]
	return id, ok
}

// ASes returns all autonomous systems, ordered by ASN.
func (t *Topology) ASes() []*AS {
	out := make([]*AS, len(t.ases))
	copy(out, t.ases)
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// ASOf returns the autonomous system of a host.
func (t *Topology) ASOf(id HostID) *AS {
	h := t.Host(id)
	if h == nil {
		return nil
	}
	return t.asByN[h.ASN]
}

// Metros returns the generated metros.
func (t *Topology) Metros() []Metro {
	out := make([]Metro, len(t.metros))
	copy(out, t.metros)
	return out
}

// Seed returns the seed the topology was generated with.
func (t *Topology) Seed() int64 { return t.params.Seed }

// Params returns the generation parameters.
func (t *Topology) Params() Params { return t.params }

func copyIDs(ids []HostID) []HostID {
	out := make([]HostID, len(ids))
	copy(out, ids)
	return out
}

// epochDay anchors diurnal phase computations; exported time helpers below
// express virtual time as a duration since the epoch.
const hoursPerDay = 24.0

// localHour returns the local solar hour-of-day at longitude lon for virtual
// time t.
func localHour(t time.Duration, lon float64) float64 {
	utcHours := t.Hours()
	h := math.Mod(utcHours+lon/15, hoursPerDay)
	if h < 0 {
		h += hoursPerDay
	}
	return h
}
