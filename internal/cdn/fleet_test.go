package cdn

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
)

func TestNewFleetValidation(t *testing.T) {
	topo := testTopology(t)
	other := testTopology(t)
	cases := []struct {
		name string
		topo *netsim.Topology
		cfgs []Config
	}{
		{"nil topology", nil, []Config{{Namespace: "a"}}},
		{"no members", topo, nil},
		{"duplicate namespace", topo, []Config{{Namespace: "a"}, {Namespace: "a"}}},
		{"empty namespace in multi-member", topo, []Config{{Namespace: "a"}, {}}},
		{"separator in namespace", topo, []Config{{Namespace: "bad!ns"}}},
		{"oversized namespace", topo, []Config{{Namespace: strings.Repeat("x", 65)}}},
		{"foreign member topology", topo, []Config{{Namespace: "a", Topo: other}}},
	}
	for _, c := range cases {
		if _, err := NewFleet(c.topo, c.cfgs); err == nil {
			t.Errorf("%s: NewFleet accepted", c.name)
		}
	}
	// A single unnamed member is the legacy single-CDN identity and is fine.
	if _, err := NewFleet(topo, []Config{{}}); err != nil {
		t.Fatalf("single unnamed member rejected: %v", err)
	}
}

func TestFleetDirectory(t *testing.T) {
	topo := testTopology(t)
	f, err := NewFleet(topo, []Config{{Namespace: "zeta"}, {Namespace: "alpha"}})
	if err != nil {
		t.Fatal(err)
	}
	// Members keep config order; Namespaces sorts.
	if m := f.Members(); len(m) != 2 || m[0].Namespace() != "zeta" || m[1].Namespace() != "alpha" {
		t.Fatalf("Members out of config order: %v, %v", m[0].Namespace(), m[1].Namespace())
	}
	if ns := f.Namespaces(); len(ns) != 2 || ns[0] != "alpha" || ns[1] != "zeta" {
		t.Fatalf("Namespaces = %v, want sorted", ns)
	}
	if n, ok := f.Get("alpha"); !ok || n.Namespace() != "alpha" {
		t.Fatalf("Get(alpha) = %v, %v", n, ok)
	}
	if _, ok := f.Get("missing"); ok {
		t.Fatal("Get(missing) reported a member")
	}
}

// TestFleetMembersDivergeByNamespace: the namespace salts every noise
// source, so two members with otherwise identical configs redirect the same
// population differently — the independent-signal property the fused kernel
// consumes.
func TestFleetMembersDivergeByNamespace(t *testing.T) {
	topo := testTopology(t)
	f, err := NewFleet(topo, []Config{{Namespace: "cdnA"}, {Namespace: "cdnB"}})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := f.Get("cdnA")
	b, _ := f.Get("cdnB")
	name := servedNames[0]
	differ := 0
	for _, c := range topo.Clients()[:40] {
		ra, err := a.Redirect(name, c, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Redirect(name, c, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if len(ra) != len(rb) {
			differ++
			continue
		}
		for i := range ra {
			if ra[i] != rb[i] {
				differ++
				break
			}
		}
	}
	if differ == 0 {
		t.Fatal("two namespaces produced identical redirections for 40 clients")
	}
}

// TestFleetReplicaFraction: a fractional member deploys on a strict,
// deterministic subset of the topology's replica hosts.
func TestFleetReplicaFraction(t *testing.T) {
	topo := testTopology(t)
	f, err := NewFleet(topo, []Config{
		{Namespace: "full"},
		{Namespace: "sparse", ReplicaFraction: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	full, _ := f.Get("full")
	sparse, _ := f.Get("sparse")
	nf, ns := len(full.Replicas()), len(sparse.Replicas())
	if nf != len(topo.Replicas()) {
		t.Fatalf("full member has %d replicas, topology has %d", nf, len(topo.Replicas()))
	}
	if ns == 0 || ns >= nf {
		t.Fatalf("sparse member has %d replicas of %d; want a proper non-empty subset", ns, nf)
	}
	all := make(map[netsim.HostID]bool, nf)
	for _, r := range full.Replicas() {
		all[r] = true
	}
	for _, r := range sparse.Replicas() {
		if !all[r] {
			t.Fatalf("sparse replica %v is not a topology replica host", r)
		}
	}
	// The deployment gauges export per-member sizes as a summarizable family.
	snap := obs.Default().Snapshot()
	if got := snap.Gauges["cdn.ns.001.replicas"]; got != int64(ns) {
		t.Fatalf("cdn.ns.001.replicas = %d, want %d", got, ns)
	}
}

// TestFleetSetMapHookIsolation: a hook installed on one member fires for
// that member's redirections only, and unknown namespaces are rejected.
func TestFleetSetMapHookIsolation(t *testing.T) {
	topo := testTopology(t)
	f, err := NewFleet(topo, []Config{{Namespace: "cdnA"}, {Namespace: "cdnB"}})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	hook := func(ldns netsim.HostID, at, epochLen time.Duration, epoch uint64) (uint64, time.Duration) {
		calls.Add(1)
		return epoch, time.Duration(epoch) * epochLen
	}
	if err := f.SetMapHook("cdnA", hook); err != nil {
		t.Fatal(err)
	}
	if err := f.SetMapHook("missing", hook); err == nil {
		t.Fatal("SetMapHook on an unknown namespace accepted")
	}

	a, _ := f.Get("cdnA")
	b, _ := f.Get("cdnB")
	c := topo.Clients()[0]
	if _, err := a.Redirect(servedNames[0], c, time.Minute); err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("hooked member redirected without consulting its hook")
	}
	before := calls.Load()
	if _, err := b.Redirect(servedNames[0], c, time.Minute); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != before {
		t.Fatal("sibling member's redirect fired cdnA's hook")
	}
	// Removal restores the unhooked path.
	if err := f.SetMapHook("cdnA", nil); err != nil {
		t.Fatal(err)
	}
	before = calls.Load()
	if _, err := a.Redirect(servedNames[0], c, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != before {
		t.Fatal("removed hook still fired")
	}
}
