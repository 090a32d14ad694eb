package faults

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
)

func testTopo(t *testing.T) *netsim.Topology {
	t.Helper()
	p := netsim.DefaultParams()
	p.NumClients = 30
	p.NumCandidates = 20
	p.NumReplicas = 60
	topo, err := netsim.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := Scenario{
		Seed: 42,
		Faults: []Fault{
			{Kind: ProbeLoss, Rate: 0.2, Start: Duration(10 * time.Minute), Stop: Duration(time.Hour)},
			{Kind: CDNFreeze, Target: "europe", Start: Duration(20 * time.Minute), Stop: Duration(40 * time.Minute)},
			{Kind: ClockSkew, Skew: Duration(-30 * time.Second)},
			{Kind: PacketDelay, Target: "crpd", ExtraMs: 15},
		},
	}
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseScenario(data)
	if err != nil {
		t.Fatalf("ParseScenario(%s): %v", data, err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Fatalf("round trip changed the scenario:\nin:  %+v\nout: %+v", sc, back)
	}
}

func TestScenarioDurationsAreHumanReadable(t *testing.T) {
	sc, err := ParseScenario([]byte(`{"seed":7,"faults":[
		{"kind":"probe-loss","rate":0.5,"start":"10m","stop":"1h30m"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	f := sc.Faults[0]
	if f.Start.D() != 10*time.Minute || f.Stop.D() != 90*time.Minute {
		t.Fatalf("parsed window %v..%v, want 10m..1h30m", f.Start.D(), f.Stop.D())
	}
}

func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name string
		sc   string
	}{
		{"unknown kind", `{"faults":[{"kind":"meteor"}]}`},
		{"rate out of range", `{"faults":[{"kind":"probe-loss","rate":1.5}]}`},
		{"missing rate", `{"faults":[{"kind":"pkt-loss"}]}`},
		{"stop before start", `{"faults":[{"kind":"ldns-outage","start":"1h","stop":"30m"}]}`},
		{"congestion without extraMs", `{"faults":[{"kind":"congestion"}]}`},
		{"skew without skew", `{"faults":[{"kind":"clock-skew"}]}`},
	}
	for _, tc := range cases {
		if _, err := ParseScenario([]byte(tc.sc)); err == nil {
			t.Errorf("%s: scenario %s validated, want error", tc.name, tc.sc)
		}
	}
}

func TestCongestionStormRaisesRTT(t *testing.T) {
	topo := testTopo(t)
	clients := topo.Clients()
	a, b := clients[0], clients[1]
	at := 30 * time.Minute
	base := topo.RTTMs(a, b, at)

	plane, err := New(topo, Scenario{Seed: 9, Faults: []Fault{
		{Kind: Congestion, ExtraMs: 200, Start: 0, Stop: Duration(time.Hour)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	topo.SetPerturb(plane)
	defer topo.SetPerturb(nil)

	stormy := topo.RTTMs(a, b, at)
	if stormy < base+399 { // 200ms per endpoint
		t.Fatalf("storm RTT %0.1f, want >= %0.1f (base %0.1f + 2x200)", stormy, base+399, base)
	}
	after := topo.RTTMs(a, b, 2*time.Hour)
	if after != topo.RTTMs(a, b, 2*time.Hour) || after > base+300 {
		// outside the window the storm must be gone (diurnal drift between
		// the two instants is far below 300ms at this amplitude scale)
		t.Fatalf("post-window RTT %0.1f vs base %0.1f: storm leaked past its stop", after, base)
	}
	if plane.Activations()[Congestion] == 0 {
		t.Fatal("congestion fault never fired")
	}
}

func TestCongestionStormTargetsRegion(t *testing.T) {
	topo := testTopo(t)
	var inEU, outEU netsim.HostID = -1, -1
	for _, id := range topo.Clients() {
		switch topo.Host(id).Region {
		case "europe":
			if inEU < 0 {
				inEU = id
			}
		default:
			if outEU < 0 {
				outEU = id
			}
		}
	}
	if inEU < 0 || outEU < 0 {
		t.Skip("topology draw lacks both regions")
	}
	plane, err := New(topo, Scenario{Seed: 5, Faults: []Fault{
		{Kind: Congestion, Target: "europe", ExtraMs: 150},
	}})
	if err != nil {
		t.Fatal(err)
	}
	at := 10 * time.Minute
	if got := plane.ExtraRTTMs(inEU, at); got != 150 {
		t.Fatalf("europe host extra = %0.1f, want 150", got)
	}
	if got := plane.ExtraRTTMs(outEU, at); got != 0 {
		t.Fatalf("non-europe host extra = %0.1f, want 0", got)
	}
}

func TestClockSkewShiftsObservedTime(t *testing.T) {
	topo := testTopo(t)
	h := topo.Clients()[0]
	plane, err := New(topo, Scenario{Seed: 3, Faults: []Fault{
		{Kind: ClockSkew, Skew: Duration(45 * time.Minute), Start: 0, Stop: Duration(2 * time.Hour)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := plane.ClockSkew(h, time.Hour); got != 45*time.Minute {
		t.Fatalf("skew = %v, want 45m", got)
	}
	if got := plane.ClockSkew(h, 3*time.Hour); got != 0 {
		t.Fatalf("skew outside window = %v, want 0", got)
	}
	if plane.Activations()[ClockSkew] == 0 {
		t.Fatal("clock-skew fault never fired")
	}
}

func TestProbeLossIsSeededAndWindowed(t *testing.T) {
	topo := testTopo(t)
	sc := Scenario{Seed: 11, Faults: []Fault{
		{Kind: ProbeLoss, Rate: 0.5, Start: 0, Stop: Duration(time.Hour)},
	}}
	p1, err := New(topo, sc)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := New(topo, sc)
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	total := 0
	for _, h := range topo.Clients() {
		for i := 0; i < 6; i++ {
			at := time.Duration(i) * 10 * time.Minute
			total++
			l1, l2 := p1.ProbeLost(h, at), p2.ProbeLost(h, at)
			if l1 != l2 {
				t.Fatalf("same scenario disagreed on (%d, %v)", h, at)
			}
			if l1 {
				lost++
			}
			if p1.ProbeLost(h, at+2*time.Hour) {
				t.Fatalf("probe lost outside the fault window at %v", at+2*time.Hour)
			}
		}
	}
	frac := float64(lost) / float64(total)
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("loss fraction %0.2f far from rate 0.5 over %d draws", frac, total)
	}
	// A different seed must make different decisions somewhere.
	p3, err := New(topo, Scenario{Seed: 12, Faults: sc.Faults})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for _, h := range topo.Clients() {
		for i := 0; i < 6; i++ {
			at := time.Duration(i) * 10 * time.Minute
			if p1.ProbeLost(h, at) != p3.ProbeLost(h, at) {
				same = false
			}
		}
	}
	if same {
		t.Fatal("seeds 11 and 12 made identical loss decisions everywhere")
	}
}

func TestLDNSOutageLosesWholeWindow(t *testing.T) {
	topo := testTopo(t)
	plane, err := New(topo, Scenario{Seed: 2, Faults: []Fault{
		{Kind: LDNSOutage, Start: Duration(30 * time.Minute), Stop: Duration(time.Hour)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	h := topo.Clients()[0]
	if plane.ProbeLost(h, 10*time.Minute) {
		t.Fatal("probe lost before the outage window")
	}
	for at := 30 * time.Minute; at < time.Hour; at += 10 * time.Minute {
		if !plane.ProbeLost(h, at) {
			t.Fatalf("probe survived at %v inside the outage window", at)
		}
	}
	if plane.ProbeLost(h, time.Hour) {
		t.Fatal("probe lost at stop boundary: window must be half-open [start, stop)")
	}
}

func TestLDNSChurnRemapsDeterministically(t *testing.T) {
	topo := testTopo(t)
	sc := Scenario{Seed: 21, Faults: []Fault{
		{Kind: LDNSChurn, Rate: 1, Period: Duration(30 * time.Minute)},
	}}
	p1, err := New(topo, sc)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := New(topo, sc)
	if err != nil {
		t.Fatal(err)
	}
	h := topo.Clients()[0]
	seen := map[netsim.HostID]bool{}
	for i := 0; i < 8; i++ {
		at := time.Duration(i) * 30 * time.Minute
		r1, r2 := p1.ResolverFor(h, at), p2.ResolverFor(h, at)
		if r1 != r2 {
			t.Fatalf("churn disagreed at %v: %d vs %d", at, r1, r2)
		}
		if r1 == h {
			t.Fatalf("rate-1 churn left identity unchanged at %v", at)
		}
		if topo.Host(r1) == nil {
			t.Fatalf("churned to unknown host %d", r1)
		}
		seen[r1] = true
	}
	if len(seen) < 2 {
		t.Fatalf("8 churn periods produced %d identities, want >= 2", len(seen))
	}
	if p1.Activations()[LDNSChurn] == 0 {
		t.Fatal("churn fault never fired")
	}
}

func TestMapEpochFreezePinsEpoch(t *testing.T) {
	topo := testTopo(t)
	const epochLen = 30 * time.Second
	start := 20 * time.Minute
	plane, err := New(topo, Scenario{Seed: 8, Faults: []Fault{
		{Kind: CDNFreeze, Start: Duration(start), Stop: Duration(start + 10*time.Minute)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	h := topo.Clients()[0]
	wantEpoch := uint64(start / epochLen)

	// Before the window: identity transform.
	e, es := plane.MapHookFor("")(h, 10*time.Minute, epochLen, uint64(10*time.Minute/epochLen))
	if e != uint64(10*time.Minute/epochLen) || es != time.Duration(e)*epochLen {
		t.Fatalf("pre-window transform changed the epoch: %d/%v", e, es)
	}
	// Inside: pinned to the epoch containing start, at every instant.
	for off := time.Duration(0); off < 10*time.Minute; off += 97 * time.Second {
		at := start + off
		e, es := plane.MapHookFor("")(h, at, epochLen, uint64(at/epochLen))
		if e != wantEpoch {
			t.Fatalf("epoch at %v = %d, want frozen %d", at, e, wantEpoch)
		}
		if es != time.Duration(wantEpoch)*epochLen {
			t.Fatalf("epoch start at %v = %v, want %v", at, es, time.Duration(wantEpoch)*epochLen)
		}
	}
	if plane.Activations()[CDNFreeze] == 0 {
		t.Fatal("freeze fault never fired")
	}
}

func TestMapEpochFlapRehashesPerPeriod(t *testing.T) {
	topo := testTopo(t)
	const epochLen = 30 * time.Second
	plane, err := New(topo, Scenario{Seed: 4, Faults: []Fault{
		{Kind: CDNFlap, Period: Duration(5 * time.Minute), Start: 0, Stop: Duration(time.Hour)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	h := topo.Clients()[0]
	e1, _ := plane.MapHookFor("")(h, time.Minute, epochLen, uint64(time.Minute/epochLen))
	e1b, _ := plane.MapHookFor("")(h, 2*time.Minute, epochLen, uint64(2*time.Minute/epochLen))
	e2, _ := plane.MapHookFor("")(h, 6*time.Minute, epochLen, uint64(6*time.Minute/epochLen))
	if e1 != e1b {
		t.Fatalf("flap identity changed within one period: %d vs %d", e1, e1b)
	}
	if e1 == e2 {
		t.Fatalf("flap identity did not change across periods: %d", e1)
	}
	if e1 == uint64(time.Minute/epochLen) {
		t.Fatal("flap returned the natural epoch unchanged")
	}
}

func TestActivationCountersReachRegistry(t *testing.T) {
	topo := testTopo(t)
	reg := obs.NewRegistry()
	plane, err := New(topo, Scenario{Seed: 6, Faults: []Fault{
		{Kind: Congestion, ExtraMs: 10},
	}}, WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	plane.ExtraRTTMs(topo.Clients()[0], time.Minute)
	snap := reg.Snapshot()
	if snap.Counters["faults.activations.congestion"] == 0 {
		t.Fatalf("registry counter not incremented: %+v", snap.Counters)
	}
}
