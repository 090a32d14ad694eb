package asn

import (
	"net/netip"
	"testing"

	"repro/internal/netsim"
)

func testTopology(t *testing.T) *netsim.Topology {
	t.Helper()
	p := netsim.DefaultParams()
	p.NumClients = 150
	p.NumCandidates = 20
	p.NumReplicas = 30
	topo, err := netsim.Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return topo
}

func TestBuildTable(t *testing.T) {
	topo := testTopology(t)
	table, err := BuildTable(topo)
	if err != nil {
		t.Fatalf("BuildTable: %v", err)
	}
	if table.Len() == 0 {
		t.Fatal("empty table")
	}
	if _, err := BuildTable(nil); err == nil {
		t.Error("BuildTable(nil) should fail")
	}
}

func TestLookupResolvesEveryHost(t *testing.T) {
	topo := testTopology(t)
	table, err := BuildTable(topo)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; topo.Host(netsim.HostID(i)) != nil; i++ {
		h := topo.Host(netsim.HostID(i))
		as, ok := table.Lookup(h.Addr)
		if !ok {
			t.Fatalf("host %v (%v) matched no prefix", h.ID, h.Addr)
		}
		if as != h.ASN {
			t.Fatalf("host %v resolved to AS%d, want AS%d", h.ID, as, h.ASN)
		}
	}
}

func TestLookupMisses(t *testing.T) {
	topo := testTopology(t)
	table, err := BuildTable(topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := table.Lookup(netip.MustParseAddr("192.0.2.1")); ok {
		t.Error("address outside 10/8 should miss")
	}
	if _, ok := table.Lookup(netip.MustParseAddr("2001:db8::1")); ok {
		t.Error("IPv6 address should miss")
	}
}

func TestLookupLongestPrefixWins(t *testing.T) {
	// A table with nested prefixes to verify LPM semantics.
	table, err := NewTable(map[netip.Prefix]netsim.ASN{
		netip.MustParsePrefix("10.1.0.0/16"): 100,
		netip.MustParsePrefix("10.1.2.0/24"): 200,
	})
	if err != nil {
		t.Fatal(err)
	}

	if as, ok := table.Lookup(netip.MustParseAddr("10.1.2.7")); !ok || as != 200 {
		t.Errorf("Lookup(10.1.2.7) = %v,%v; want 200 (the /24)", as, ok)
	}
	if as, ok := table.Lookup(netip.MustParseAddr("10.1.9.7")); !ok || as != 100 {
		t.Errorf("Lookup(10.1.9.7) = %v,%v; want 100 (the /16)", as, ok)
	}
}

func TestLookupPrefixReturnsMatch(t *testing.T) {
	table, err := NewTable(map[netip.Prefix]netsim.ASN{
		netip.MustParsePrefix("10.1.0.0/16"): 100,
		netip.MustParsePrefix("10.1.2.0/24"): 200,
		netip.MustParsePrefix("0.0.0.0/0"):   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		addr string
		pfx  string
		as   netsim.ASN
	}{
		{"10.1.2.7", "10.1.2.0/24", 200},
		{"10.1.9.7", "10.1.0.0/16", 100},
		{"192.0.2.1", "0.0.0.0/0", 7},
	}
	for _, c := range cases {
		pfx, as, ok := table.LookupPrefix(netip.MustParseAddr(c.addr))
		if !ok || pfx.String() != c.pfx || as != c.as {
			t.Errorf("LookupPrefix(%s) = %v, AS%d, %v; want %s, AS%d", c.addr, pfx, as, ok, c.pfx, c.as)
		}
	}
	if _, _, ok := table.LookupPrefix(netip.MustParseAddr("2001:db8::1")); ok {
		t.Error("IPv6 address should miss")
	}
}

func TestKeyFuncDeclinesNonAddresses(t *testing.T) {
	table, err := NewTable(map[netip.Prefix]netsim.ASN{
		netip.MustParsePrefix("10.1.0.0/16"): 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	keyOf := table.KeyFunc()
	if key, ok := keyOf("10.1.2.7"); !ok || key != "10.1.0.0/16" {
		t.Errorf("KeyFunc(10.1.2.7) = %q,%v; want 10.1.0.0/16", key, ok)
	}
	if _, ok := keyOf("candidate-007"); ok {
		t.Error("symbolic node ID should be declined")
	}
	if _, ok := keyOf("192.0.2.1"); ok {
		t.Error("address outside the table should be declined")
	}
}

func TestMaskedKey(t *testing.T) {
	a := netip.MustParseAddr("10.1.2.3")
	if got := maskedKey(a, 32); got != 0x0A010203 {
		t.Errorf("/32 key = %08x", got)
	}
	if got := maskedKey(a, 24); got != 0x0A010200 {
		t.Errorf("/24 key = %08x", got)
	}
	if got := maskedKey(a, 8); got != 0x0A000000 {
		t.Errorf("/8 key = %08x", got)
	}
	if got := maskedKey(a, 0); got != 0 {
		t.Errorf("/0 key = %08x", got)
	}
}

func TestClustersGroupByASN(t *testing.T) {
	topo := testTopology(t)
	table, err := BuildTable(topo)
	if err != nil {
		t.Fatal(err)
	}
	hosts := topo.Clients()
	clusters, err := Clusters(topo, table, hosts, nil)
	if err != nil {
		t.Fatalf("Clusters: %v", err)
	}

	// Every host appears exactly once, and all members of a cluster share
	// an ASN.
	seen := map[string]bool{}
	total := 0
	for _, c := range clusters {
		total += len(c.Members)
		var as netsim.ASN
		for i, m := range c.Members {
			if seen[string(m)] {
				t.Fatalf("node %v in two clusters", m)
			}
			seen[string(m)] = true
			id, ok := topo.HostByName(string(m))
			if !ok {
				t.Fatalf("cluster member %q is not a host name", m)
			}
			if i == 0 {
				as = topo.Host(id).ASN
			} else if topo.Host(id).ASN != as {
				t.Fatalf("cluster %v mixes AS%d and AS%d", c.Center, as, topo.Host(id).ASN)
			}
		}
	}
	if total != len(hosts) {
		t.Errorf("clusters cover %d hosts, want %d", total, len(hosts))
	}
}

func TestClustersCenterMinimizesDistance(t *testing.T) {
	topo := testTopology(t)
	table, err := BuildTable(topo)
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := Clusters(topo, table, topo.Clients(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range clusters {
		if len(c.Members) < 3 {
			continue
		}
		sumFrom := func(center string) float64 {
			cid, _ := topo.HostByName(center)
			s := 0.0
			for _, m := range c.Members {
				mid, _ := topo.HostByName(string(m))
				if mid != cid {
					s += topo.BaseRTTMs(cid, mid)
				}
			}
			return s
		}
		centerSum := sumFrom(string(c.Center))
		for _, m := range c.Members {
			if sumFrom(string(m)) < centerSum-1e-9 {
				t.Errorf("cluster %v: member %v beats center", c.Center, m)
			}
		}
		break // one thorough check is enough
	}
}

func TestClustersValidation(t *testing.T) {
	topo := testTopology(t)
	table, err := BuildTable(topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Clusters(nil, table, nil, nil); err == nil {
		t.Error("nil topology should fail")
	}
	if _, err := Clusters(topo, nil, nil, nil); err == nil {
		t.Error("nil table should fail")
	}
	if _, err := Clusters(topo, table, []netsim.HostID{-7}, nil); err == nil {
		t.Error("unknown host should fail")
	}
}

func TestClustersFewerThanCRPWouldFind(t *testing.T) {
	// Structural property from the paper: many co-located nodes sit in
	// different ASes, so ASN clustering leaves most nodes as singletons.
	topo := testTopology(t)
	table, err := BuildTable(topo)
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := Clusters(topo, table, topo.Clients(), nil)
	if err != nil {
		t.Fatal(err)
	}
	clustered := 0
	for _, c := range clusters {
		if len(c.Members) >= 2 {
			clustered += len(c.Members)
		}
	}
	frac := float64(clustered) / float64(len(topo.Clients()))
	if frac > 0.8 {
		t.Errorf("ASN clustering grouped %.0f%% of nodes; expected substantial singleton fraction", frac*100)
	}
}
