package faults

import (
	"testing"
	"time"
)

// TestMapHookForCDNScope: a cdn-freeze scoped to one namespace applies
// through that namespace's hook only — the sibling's hook and the unnamed
// single-CDN member's both see an identity transform — while an unscoped
// fault applies everywhere.
func TestMapHookForCDNScope(t *testing.T) {
	topo := testTopo(t)
	const epochLen = 30 * time.Second
	start := 20 * time.Minute
	plane, err := New(topo, Scenario{Seed: 8, Faults: []Fault{
		{Kind: CDNFreeze, CDN: "cdnA", Start: Duration(start), Stop: Duration(start + 10*time.Minute)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	h := topo.Clients()[0]
	at := start + 3*time.Minute
	natural := uint64(at / epochLen)
	frozen := uint64(start / epochLen)

	if e, _ := plane.MapHookFor("cdnA")(h, at, epochLen, natural); e != frozen {
		t.Fatalf("cdnA hook epoch = %d, want frozen %d", e, frozen)
	}
	if e, es := plane.MapHookFor("cdnB")(h, at, epochLen, natural); e != natural || es != time.Duration(natural)*epochLen {
		t.Fatalf("cdnB hook perturbed by cdnA's fault: %d/%v", e, es)
	}
	if e, _ := plane.MapHookFor("")(h, at, epochLen, natural); e != natural {
		t.Fatalf("unnamed member's hook perturbed by a CDN-scoped fault: %d", e)
	}

	// Unscoped: the fault is fleet-wide and reaches every hook.
	wide, err := New(topo, Scenario{Seed: 8, Faults: []Fault{
		{Kind: CDNFreeze, Start: Duration(start), Stop: Duration(start + 10*time.Minute)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, hook := range []func(h2 time.Duration) uint64{
		func(time.Duration) uint64 { e, _ := wide.MapHookFor("cdnA")(h, at, epochLen, natural); return e },
		func(time.Duration) uint64 { e, _ := wide.MapHookFor("cdnB")(h, at, epochLen, natural); return e },
		func(time.Duration) uint64 { e, _ := wide.MapHookFor("")(h, at, epochLen, natural); return e },
	} {
		if e := hook(at); e != frozen {
			t.Fatalf("fleet-wide freeze missed a hook: epoch %d, want %d", e, frozen)
		}
	}
}

// TestMapHookForCDNFlapScope mirrors the freeze test for the flap kind: the
// scoped namespace rehashes its epoch identity, the sibling keeps the
// natural one.
func TestMapHookForCDNFlapScope(t *testing.T) {
	topo := testTopo(t)
	const epochLen = 30 * time.Second
	plane, err := New(topo, Scenario{Seed: 4, Faults: []Fault{
		{Kind: CDNFlap, CDN: "cdnB", Period: Duration(5 * time.Minute), Start: 0, Stop: Duration(time.Hour)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	h := topo.Clients()[0]
	at := time.Minute
	natural := uint64(at / epochLen)
	if e, _ := plane.MapHookFor("cdnB")(h, at, epochLen, natural); e == natural {
		t.Fatal("scoped flap did not rehash cdnB's epoch")
	}
	if e, _ := plane.MapHookFor("cdnA")(h, at, epochLen, natural); e != natural {
		t.Fatalf("cdnA hook perturbed by cdnB's flap: %d", e)
	}
	if e, _ := plane.MapHookFor("")(h, at, epochLen, natural); e != natural {
		t.Fatalf("unnamed member's hook perturbed by a CDN-scoped flap: %d", e)
	}
}

// TestScenarioRejectsCDNScopeOnOtherKinds: the CDN field only means
// something on the mapping-hook kinds; anywhere else it is a config error.
func TestScenarioRejectsCDNScopeOnOtherKinds(t *testing.T) {
	topo := testTopo(t)
	for _, f := range []Fault{
		{Kind: ProbeLoss, CDN: "cdnA", Rate: 0.5},
		{Kind: LDNSChurn, CDN: "cdnA", Rate: 0.5},
		{Kind: Congestion, CDN: "cdnA", ExtraMs: 10},
	} {
		if _, err := New(topo, Scenario{Seed: 1, Faults: []Fault{f}}); err == nil {
			t.Errorf("%s with a CDN scope accepted", f.Kind)
		}
	}
}
