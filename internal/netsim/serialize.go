package netsim

import (
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
)

// Topology serialization: a generated world can be exported to JSON for
// external analysis (plotting host placements, feeding other tools) and
// reloaded without re-running the generator. Loading validates the same
// invariants generation guarantees, so a topology edited by hand (e.g., a
// hand-crafted regression scenario) is checked before use.

type hostJSON struct {
	ID              int     `json:"id"`
	Kind            int     `json:"kind"`
	Name            string  `json:"name"`
	Addr            string  `json:"addr"`
	Lat             float64 `json:"lat"`
	Lon             float64 `json:"lon"`
	ASN             uint32  `json:"asn"`
	Region          string  `json:"region"`
	Metro           int     `json:"metro"`
	AccessRTTMs     float64 `json:"accessRttMs"`
	CongestionAmpMs float64 `json:"congestionAmpMs"`
	LDNS            int     `json:"ldns"`
}

type asJSON struct {
	ASN      uint32   `json:"asn"`
	Region   string   `json:"region"`
	Metros   []int    `json:"metros"`
	Prefixes []string `json:"prefixes"`
}

type metroJSON struct {
	ID     int      `json:"id"`
	Region string   `json:"region"`
	Lat    float64  `json:"lat"`
	Lon    float64  `json:"lon"`
	Weight float64  `json:"weight"`
	ASNs   []uint32 `json:"asns"`
}

type topologyJSON struct {
	Seed   int64       `json:"seed"`
	Metros []metroJSON `json:"metros"`
	ASes   []asJSON    `json:"ases"`
	Hosts  []hostJSON  `json:"hosts"`
}

// WriteJSON serializes the topology.
func (t *Topology) WriteJSON(w io.Writer) error {
	out := topologyJSON{Seed: t.params.Seed}
	for _, m := range t.metros {
		asns := make([]uint32, len(m.ASNs))
		for i, a := range m.ASNs {
			asns[i] = uint32(a)
		}
		out.Metros = append(out.Metros, metroJSON{
			ID: m.ID, Region: m.Region, Lat: m.Center.Lat, Lon: m.Center.Lon,
			Weight: m.Weight, ASNs: asns,
		})
	}
	for _, as := range t.ases {
		prefixes := make([]string, len(as.Prefixes))
		for i, p := range as.Prefixes {
			prefixes[i] = p.String()
		}
		out.ASes = append(out.ASes, asJSON{
			ASN: uint32(as.ASN), Region: as.Region, Metros: as.Metros, Prefixes: prefixes,
		})
	}
	for _, h := range t.hosts {
		out.Hosts = append(out.Hosts, hostJSON{
			ID: int(h.ID), Kind: int(h.Kind), Name: h.Name, Addr: h.Addr.String(),
			Lat: h.Coord.Lat, Lon: h.Coord.Lon, ASN: uint32(h.ASN), Region: h.Region,
			Metro: h.Metro, AccessRTTMs: h.AccessRTTMs,
			CongestionAmpMs: h.CongestionAmpMs, LDNS: int(h.LDNS),
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// LoadJSON reconstructs a topology from its JSON form, validating host
// numbering, address uniqueness and referential integrity.
func LoadJSON(r io.Reader) (*Topology, error) {
	var in topologyJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("netsim: decode topology: %w", err)
	}

	t := &Topology{
		params: Params{Seed: in.Seed},
		seed:   uint64(in.Seed),
		asByN:  make(map[ASN]*AS, len(in.ASes)),
		byName: make(map[string]HostID, len(in.Hosts)),
	}

	for i, m := range in.Metros {
		if m.ID != i {
			return nil, fmt.Errorf("netsim: metro %d out of order (ID %d)", i, m.ID)
		}
		metro := Metro{
			ID: m.ID, Region: m.Region,
			Center: Coord{Lat: m.Lat, Lon: m.Lon}, Weight: m.Weight,
		}
		for _, a := range m.ASNs {
			metro.ASNs = append(metro.ASNs, ASN(a))
		}
		t.metros = append(t.metros, metro)
	}

	for _, a := range in.ASes {
		as := &AS{ASN: ASN(a.ASN), Region: a.Region, Metros: a.Metros}
		for _, ps := range a.Prefixes {
			p, err := netip.ParsePrefix(ps)
			if err != nil {
				return nil, fmt.Errorf("netsim: AS%d prefix %q: %w", a.ASN, ps, err)
			}
			as.Prefixes = append(as.Prefixes, p)
		}
		if _, dup := t.asByN[as.ASN]; dup {
			return nil, fmt.Errorf("netsim: duplicate AS%d", a.ASN)
		}
		for _, mid := range as.Metros {
			if mid < 0 || mid >= len(t.metros) {
				return nil, fmt.Errorf("netsim: AS%d references unknown metro %d", a.ASN, mid)
			}
		}
		t.ases = append(t.ases, as)
		t.asByN[as.ASN] = as
	}

	addrs := make(map[netip.Addr]struct{}, len(in.Hosts))
	for i, h := range in.Hosts {
		if h.ID != i {
			return nil, fmt.Errorf("netsim: host %d out of order (ID %d)", i, h.ID)
		}
		addr, err := netip.ParseAddr(h.Addr)
		if err != nil {
			return nil, fmt.Errorf("netsim: host %d addr %q: %w", h.ID, h.Addr, err)
		}
		kind := HostKind(h.Kind)
		switch kind {
		case KindReplica, KindCandidate, KindClient:
		default:
			return nil, fmt.Errorf("netsim: host %d has unknown kind %d", h.ID, h.Kind)
		}
		if _, ok := t.asByN[ASN(h.ASN)]; !ok {
			return nil, fmt.Errorf("netsim: host %d references unknown AS%d", h.ID, h.ASN)
		}
		if h.Metro < 0 || h.Metro >= len(t.metros) {
			return nil, fmt.Errorf("netsim: host %d references unknown metro %d", h.ID, h.Metro)
		}
		if h.LDNS < 0 || h.LDNS >= len(in.Hosts) {
			return nil, fmt.Errorf("netsim: host %d references unknown LDNS %d", h.ID, h.LDNS)
		}
		host := &Host{
			ID: HostID(h.ID), Kind: kind, Name: h.Name, Addr: addr,
			Coord: Coord{Lat: h.Lat, Lon: h.Lon}, ASN: ASN(h.ASN),
			Region: h.Region, Metro: h.Metro,
			AccessRTTMs: h.AccessRTTMs, CongestionAmpMs: h.CongestionAmpMs,
			LDNS: HostID(h.LDNS),
		}
		if _, dup := t.byName[host.Name]; dup {
			return nil, fmt.Errorf("netsim: duplicate host name %q", host.Name)
		}
		if _, dup := addrs[host.Addr]; dup {
			return nil, fmt.Errorf("netsim: duplicate host address %v", host.Addr)
		}
		t.hosts = append(t.hosts, host)
		t.byName[host.Name] = host.ID
		addrs[host.Addr] = struct{}{}
		switch kind {
		case KindReplica:
			t.replicas = append(t.replicas, host.ID)
		case KindCandidate:
			t.candidates = append(t.candidates, host.ID)
		case KindClient:
			t.clients = append(t.clients, host.ID)
		}
	}
	return t, nil
}
