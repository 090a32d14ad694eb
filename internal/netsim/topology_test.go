package netsim

import (
	"net/netip"
	"strings"
	"testing"
)

// smallParams keeps generation fast in unit tests.
func smallParams() Params {
	p := DefaultParams()
	p.NumClients = 120
	p.NumCandidates = 40
	p.NumReplicas = 80
	return p
}

func mustGenerate(t *testing.T, p Params) *Topology {
	t.Helper()
	topo, err := Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return topo
}

func TestGenerateCounts(t *testing.T) {
	p := smallParams()
	topo := mustGenerate(t, p)
	if got := len(topo.Clients()); got != p.NumClients {
		t.Errorf("clients = %d, want %d", got, p.NumClients)
	}
	if got := len(topo.Candidates()); got != p.NumCandidates {
		t.Errorf("candidates = %d, want %d", got, p.NumCandidates)
	}
	if got := len(topo.Replicas()); got != p.NumReplicas {
		t.Errorf("replicas = %d, want %d", got, p.NumReplicas)
	}
	if got := len(topo.hosts); got != p.NumClients+p.NumCandidates+p.NumReplicas {
		t.Errorf("host count = %d, want %d", got, p.NumClients+p.NumCandidates+p.NumReplicas)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, smallParams())
	b := mustGenerate(t, smallParams())
	if len(a.hosts) != len(b.hosts) {
		t.Fatalf("host counts differ: %d vs %d", len(a.hosts), len(b.hosts))
	}
	for i := 0; i < len(a.hosts); i++ {
		ha, hb := a.Host(HostID(i)), b.Host(HostID(i))
		if *ha != *hb {
			t.Fatalf("host %d differs across generations:\n%+v\n%+v", i, ha, hb)
		}
	}
}

func TestGenerateSeedChangesTopology(t *testing.T) {
	p := smallParams()
	a := mustGenerate(t, p)
	p.Seed = 2
	b := mustGenerate(t, p)
	same := 0
	for i := 0; i < len(a.hosts); i++ {
		if a.Host(HostID(i)).Coord == b.Host(HostID(i)).Coord {
			same++
		}
	}
	if same == len(a.hosts) {
		t.Error("different seeds produced identical host placements")
	}
}

func TestGenerateHostInvariants(t *testing.T) {
	topo := mustGenerate(t, smallParams())
	seenAddr := map[netip.Addr]bool{}
	seenName := map[string]bool{}
	for i := 0; i < len(topo.hosts); i++ {
		h := topo.Host(HostID(i))
		if h.ID != HostID(i) {
			t.Fatalf("host %d has ID %d", i, h.ID)
		}
		if seenAddr[h.Addr] {
			t.Errorf("duplicate address %v", h.Addr)
		}
		seenAddr[h.Addr] = true
		if seenName[h.Name] {
			t.Errorf("duplicate name %q", h.Name)
		}
		seenName[h.Name] = true
		if !strings.HasSuffix(h.Name, ".sim.") {
			t.Errorf("host name %q is not under .sim.", h.Name)
		}
		if h.LDNS != h.ID {
			t.Errorf("host %d LDNS = %d, want self", h.ID, h.LDNS)
		}
		if h.AccessRTTMs < 0 || h.AccessRTTMs > 45 {
			t.Errorf("host %d access delay %v out of range", h.ID, h.AccessRTTMs)
		}
		as := topo.asByN[h.ASN]
		if as == nil {
			t.Fatalf("host %d has no AS", h.ID)
		}
		inPrefix := false
		for _, pfx := range as.Prefixes {
			if pfx.Contains(h.Addr) {
				inPrefix = true
			}
		}
		if !inPrefix {
			t.Errorf("host %d addr %v not inside its AS prefixes %v", h.ID, h.Addr, as.Prefixes)
		}
		// Region consistency: host is placed in its metro's region.
		m := topo.Metros()[h.Metro]
		if m.Region != h.Region {
			t.Errorf("host %d region %q != metro region %q", h.ID, h.Region, m.Region)
		}
	}
}

func TestGenerateLookupTables(t *testing.T) {
	topo := mustGenerate(t, smallParams())
	h := topo.Host(topo.Clients()[0])
	if id, ok := topo.HostByName(h.Name); !ok || id != h.ID {
		t.Errorf("HostByName(%q) = %v,%v; want %v,true", h.Name, id, ok, h.ID)
	}
	if _, ok := topo.HostByName("nonexistent.sim."); ok {
		t.Error("HostByName of unknown name should report !ok")
	}
}

func TestGenerateRegionSkew(t *testing.T) {
	// The CDN deployment must be denser than the host population in
	// north-america and sparser in oceania+africa: this coverage skew drives
	// the tails of the paper's Figs. 4-5.
	p := DefaultParams()
	p.NumClients, p.NumCandidates, p.NumReplicas = 2000, 200, 1000
	topo := mustGenerate(t, p)

	frac := func(ids []HostID, region string) float64 {
		n := 0
		for _, id := range ids {
			if topo.Host(id).Region == region {
				n++
			}
		}
		return float64(n) / float64(len(ids))
	}
	if rf, cf := frac(topo.Replicas(), "north-america"), frac(topo.Clients(), "north-america"); rf <= cf {
		t.Errorf("replica fraction in north-america (%.2f) should exceed client fraction (%.2f)", rf, cf)
	}
	sparse := frac(topo.Replicas(), "oceania") + frac(topo.Replicas(), "africa")
	dense := frac(topo.Clients(), "oceania") + frac(topo.Clients(), "africa")
	if sparse >= dense {
		t.Errorf("replica fraction in oceania+africa (%.2f) should be below client fraction (%.2f)", sparse, dense)
	}
}

func TestGenerateBackboneASesSpanMetros(t *testing.T) {
	topo := mustGenerate(t, smallParams())
	multi := 0
	for _, as := range topo.ASes() {
		if len(as.Metros) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no multi-metro (backbone) ASes generated")
	}
}

func TestGenerateValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"negative clients", func(p *Params) { p.NumClients = -1 }},
		{"no regions", func(p *Params) { p.Regions = nil }},
		{"zero ases per metro", func(p *Params) { p.LocalASesPerMetro = 0 }},
		{"region without metros", func(p *Params) { p.Regions[0].Metros = 0 }},
		{"empty bbox", func(p *Params) { p.Regions[0].LatMin = p.Regions[0].LatMax }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := smallParams()
			tt.mutate(&p)
			if _, err := Generate(p); err == nil {
				t.Error("Generate should fail")
			}
		})
	}
}

func TestHostOutOfRange(t *testing.T) {
	topo := mustGenerate(t, smallParams())
	if topo.Host(-1) != nil {
		t.Error("Host(-1) should be nil")
	}
	if topo.Host(HostID(len(topo.hosts))) != nil {
		t.Error("Host(len(hosts)) should be nil")
	}
}

func TestAccessorsReturnCopies(t *testing.T) {
	topo := mustGenerate(t, smallParams())
	ids := topo.Clients()
	ids[0] = -999
	if topo.Clients()[0] == -999 {
		t.Error("Clients() exposes internal slice")
	}
	ms := topo.Metros()
	ms[0].Region = "tampered"
	if topo.Metros()[0].Region == "tampered" {
		t.Error("Metros() exposes internal slice")
	}
}

func TestHostKindString(t *testing.T) {
	tests := []struct {
		kind HostKind
		want string
	}{
		{KindReplica, "replica"},
		{KindCandidate, "candidate"},
		{KindClient, "client"},
		{HostKind(99), "HostKind(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.kind), got, tt.want)
		}
	}
}
