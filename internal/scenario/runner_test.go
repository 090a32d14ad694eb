package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// memPlanJSON is a full-featured mem-transport plan: providers, a plain
// client group, a prefix-structured group feeding the aggregation plane off
// (prefix identities work without aggregation too), a gossip fault, and
// every deterministic gate the envelope offers.
const memPlanJSON = `{
  "name": "unit-mem",
  "seed": 99,
  "transport": "mem",
  "daemons": 3,
  "duration": "20s",
  "groups": [
    {"name": "origin", "kind": "providers", "size": 36, "home": 0, "probes": 4, "metros": 6},
    {"name": "web", "kind": "clients", "size": 30, "home": 0,
     "arrival": {"process": "constant", "rate": 12},
     "ops": {"observe": 0.5, "closest": 0.2, "topk": 0.1, "similarity": 0.2}},
    {"name": "edge", "kind": "bystanders", "size": 20, "home": 1, "prefix": "10.40.0.0/24", "codec": "binary",
     "arrival": {"process": "flash", "rate": 4, "spikes": [{"at": "5s", "width": "5s", "factor": 3}]},
     "ops": {"observe": 1}}
  ],
  "faults": {"seed": 5, "faults": [{"kind": "pkt-loss", "rate": 0.05, "target": "gossip"}]},
  "envelope": {"maxErrorRate": 0, "minCompleted": 100, "maxRateError": 0.25,
               "requireConverged": true, "maxConvergeRounds": 50, "requireSnapshotMatch": true}
}`

func decodeTestPlan(t *testing.T, raw string) *Plan {
	t.Helper()
	p, err := DecodePlan([]byte(raw))
	if err != nil {
		t.Fatalf("decode plan: %v", err)
	}
	return p
}

// TestScenarioMemDeterministic runs the mem plan twice and demands
// byte-identical Det slices — the property the CI rerun gate builds on —
// plus passing verdicts and exported scenario.group.* and peering.* counters,
// at the plan's 5 % gossip loss and at 30 %, where anti-entropy does the
// repair. The late-start and early-stop rows window the fault on the plan
// clock: it must fire, but less often than the always-on fault does.
func TestScenarioMemDeterministic(t *testing.T) {
	for _, row := range []struct {
		name        string
		loss        float64
		start, stop time.Duration
	}{
		{name: "loss-0.05", loss: 0.05},
		{name: "loss-0.3", loss: 0.3},
		{name: "late-start", loss: 0.3, start: 10 * time.Second},
		{name: "early-stop", loss: 0.3, stop: 10 * time.Second},
	} {
		t.Run(row.name, func(t *testing.T) {
			f := faults.Fault{Kind: faults.PacketLoss, Rate: row.loss, Target: "gossip"}
			alwaysOn := testMemDeterministic(t, f)
			if row.start == 0 && row.stop == 0 {
				return
			}
			f.Start, f.Stop = faults.Duration(row.start), faults.Duration(row.stop)
			if got := testMemDeterministic(t, f); got >= alwaysOn {
				t.Errorf("windowed fault fired %d times, the always-on one %d: the window was not evaluated", got, alwaysOn)
			}
		})
	}
}

// testMemDeterministic runs memPlanJSON under fault f and returns how often
// the fault fired.
func testMemDeterministic(t *testing.T, f faults.Fault) uint64 {
	runOnce := func() (*Report, []byte) {
		p := decodeTestPlan(t, memPlanJSON)
		p.Faults.Faults[0] = f
		rep, err := Run(p, Options{Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		det, err := json.MarshalIndent(rep.Det, "", "  ")
		if err != nil {
			t.Fatalf("marshal det: %v", err)
		}
		return rep, det
	}
	rep1, det1 := runOnce()
	_, det2 := runOnce()

	if !bytes.Equal(det1, det2) {
		t.Fatalf("same-seed det reports differ:\n--- run1\n%s\n--- run2\n%s", det1, det2)
	}
	if !rep1.AllPass() {
		t.Fatalf("envelope gates failed: %+v\ndet: %s", rep1.FailedGates(), det1)
	}
	if !rep1.Det.Converged || !rep1.Det.SnapshotMatch {
		t.Fatalf("mesh fidelity not established: converged=%v snapshotMatch=%v",
			rep1.Det.Converged, rep1.Det.SnapshotMatch)
	}
	if rep1.Det.Activations["pkt-loss"] == 0 {
		t.Fatal("gossip fault declared but never activated")
	}
	if rep1.Stats == nil {
		t.Fatal("no stats snapshot in the report")
	}
	for _, g := range []string{"origin", "web", "edge"} {
		if rep1.Stats.Counters["scenario.group."+g+".offered"] == 0 {
			t.Errorf("scenario.group.%s.offered missing from the stats-op export", g)
		}
	}
	for _, c := range []string{"rounds", "msgs", "deltas_sent", "deltas_applied", "digests_sent", "digest_bytes"} {
		if rep1.Stats.Counters["peering."+c] == 0 {
			t.Errorf("peering.%s is zero: the gossip plane did not run", c)
		}
	}
	// Offered counts must reconcile: providers seed size*probes, driven
	// groups realize their Poisson schedules.
	if got := rep1.Det.Groups[0].Offered; got != 36*4 {
		t.Errorf("provider offered = %d, want %d", got, 36*4)
	}
	return rep1.Det.Activations["pkt-loss"]
}

// TestScenarioSingleDaemon: a daemons=1 plan runs without a gossip plane
// and converges trivially.
func TestScenarioSingleDaemon(t *testing.T) {
	const plan = `{
	  "name": "unit-single", "seed": 3, "daemons": 1, "duration": "5s",
	  "groups": [
	    {"name": "pro", "kind": "providers", "size": 12, "home": 0, "probes": 3},
	    {"name": "cli", "kind": "clients", "size": 8,
	     "arrival": {"process": "constant", "rate": 6},
	     "ops": {"observe": 0.4, "closest": 0.3, "cluster": 0.3}}
	  ],
	  "envelope": {"maxErrorRate": 0, "requireConverged": true}
	}`
	rep, err := Run(decodeTestPlan(t, plan), Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.AllPass() {
		t.Fatalf("gates failed: %+v", rep.FailedGates())
	}
	if !rep.Det.Converged {
		t.Fatal("single daemon must converge trivially")
	}
}

// TestScenarioNSScopedGroup: an ns-scoped observe-only group must drive
// namespaced replicas through the daemon without errors.
func TestScenarioNSScopedGroup(t *testing.T) {
	const plan = `{
	  "name": "unit-ns", "seed": 21, "daemons": 1, "duration": "5s",
	  "groups": [
	    {"name": "cdn-b", "kind": "clients", "size": 10, "ns": "cdnb",
	     "arrival": {"process": "mobile", "rate": 8, "churnRate": 0.3, "period": "2s"},
	     "ops": {"observe": 1}}
	  ],
	  "envelope": {"maxErrorRate": 0, "minCompleted": 20}
	}`
	rep, err := Run(decodeTestPlan(t, plan), Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.AllPass() {
		t.Fatalf("gates failed: %+v", rep.FailedGates())
	}
	if rep.Det.Groups[0].Errored != 0 {
		t.Fatalf("%d ns-scoped observes errored", rep.Det.Groups[0].Errored)
	}
}

// TestScenarioAggregationPlane: prefix-structured clients with
// aggregateBits on must aggregate (fewer tracked nodes than offered
// identities) and still serve queries.
func TestScenarioAggregationPlane(t *testing.T) {
	const plan = `{
	  "name": "unit-agg", "seed": 31, "daemons": 1, "duration": "8s", "aggregateBits": 24,
	  "groups": [
	    {"name": "origin", "kind": "providers", "size": 12, "home": 0, "probes": 3},
	    {"name": "homes", "kind": "clients", "size": 200, "prefix": "10.50.0.0/24",
	     "arrival": {"process": "constant", "rate": 40},
	     "ops": {"observe": 0.8, "closest": 0.2}}
	  ],
	  "envelope": {"maxErrorRate": 0}
	}`
	rep, err := Run(decodeTestPlan(t, plan), Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.AllPass() {
		t.Fatalf("gates failed: %+v", rep.FailedGates())
	}
}

// TestCheckedInPlansDecode pins the two shipped plans: they must decode,
// validate, and declare the envelope gates their legacy counterparts
// enforce.
func TestCheckedInPlansDecode(t *testing.T) {
	cases := map[string]func(t *testing.T, p *Plan){
		"gossip_converge.json": func(t *testing.T, p *Plan) {
			if p.Transport != TransportMem || !p.Envelope.RequireSnapshotMatch || p.Envelope.MaxConvergeRounds != 50 {
				t.Errorf("gossip plan lost its legacy gates: %+v", p.Envelope)
			}
		},
		"crpd_stress.json": func(t *testing.T, p *Plan) {
			if p.Transport != TransportUDP || p.Envelope.MaxErrorRate == nil || p.Envelope.MinCompleted == 0 {
				t.Errorf("crpd plan lost its legacy gates: %+v", p.Envelope)
			}
		},
	}
	for name, check := range cases {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("..", "..", "scenarios", name))
			if err != nil {
				t.Fatalf("read checked-in plan: %v", err)
			}
			p, err := DecodePlan(raw)
			if err != nil {
				t.Fatalf("checked-in plan invalid: %v", err)
			}
			check(t, p)
		})
	}
}

// udpSmokeJSON is the end-to-end regression: 3 real daemons on loopback
// UDP, gossip engines started, one provider and two driven groups (one
// binary-codec), ~4s of paced load.
const udpSmokeJSON = `{
  "name": "udp-smoke",
  "seed": 1234,
  "transport": "udp",
  "daemons": 3,
  "duration": "3s",
  "groups": [
    {"name": "origin", "kind": "providers", "size": 24, "home": 0, "probes": 3, "metros": 4},
    {"name": "web", "kind": "clients", "size": 16, "home": 0,
     "arrival": {"process": "constant", "rate": 30},
     "ops": {"observe": 0.5, "closest": 0.3, "similarity": 0.2}},
    {"name": "bin", "kind": "clients", "size": 8, "home": 1, "codec": "binary",
     "arrival": {"process": "constant", "rate": 15},
     "ops": {"observe": 0.7, "topk": 0.3}}
  ],
  "envelope": {"maxErrorRate": 0, "minCompleted": 30, "maxRateError": 0.5, "requireConverged": true}
}`

// TestScenarioUDPSmokeThreeDaemons is the CI smoke: convergence, verdicts,
// counter export and det-report rerun identity over real sockets.
func TestScenarioUDPSmokeThreeDaemons(t *testing.T) {
	if testing.Short() {
		t.Skip("paced real-UDP run")
	}
	runOnce := func() (*Report, []byte) {
		rep, err := Run(decodeTestPlan(t, udpSmokeJSON), Options{Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		det, err := json.MarshalIndent(rep.Det, "", "  ")
		if err != nil {
			t.Fatalf("marshal det: %v", err)
		}
		return rep, det
	}
	rep, det1 := runOnce()

	if !rep.Det.Converged {
		t.Fatal("3-daemon UDP mesh did not converge")
	}
	if !rep.AllPass() {
		t.Fatalf("envelope gates failed: %+v\ndet: %s", rep.FailedGates(), det1)
	}
	if rep.Stats == nil {
		t.Fatal("no stats snapshot came back over the wire")
	}
	for _, g := range []string{"origin", "web", "bin"} {
		if rep.Stats.Counters["scenario.group."+g+".offered"] == 0 {
			t.Errorf("scenario.group.%s.offered missing from the wire stats export", g)
		}
	}
	for _, gd := range rep.Det.Groups {
		if gd.Offered == 0 || gd.Completed == 0 {
			t.Errorf("group %s drove no traffic: %+v", gd.Name, gd)
		}
	}

	_, det2 := runOnce()
	if !bytes.Equal(det1, det2) {
		t.Fatalf("same-seed UDP det reports differ:\n--- run1\n%s\n--- run2\n%s", det1, det2)
	}
}

// TestScenarioDriftBlock runs a plan carrying the drift block: the runner
// must tick the detector on the declared cadence, report the frame count
// and event list in the Det slice, and evaluate the drift-events gate. A
// stationary constant-rate workload must not look like a CDN remap.
func TestScenarioDriftBlock(t *testing.T) {
	const planJSON = `{
	  "name": "unit-drift",
	  "seed": 311,
	  "transport": "mem",
	  "daemons": 1,
	  "duration": "24s",
	  "drift": {"every": 4},
	  "groups": [
	    {"name": "web", "kind": "clients", "size": 30, "home": 0, "ns": "cdnA",
	     "arrival": {"process": "constant", "rate": 20},
	     "ops": {"observe": 0.8, "closest": 0.2}}
	  ],
	  "envelope": {"maxErrorRate": 0, "maxDriftEvents": 0}
	}`
	rep, err := Run(decodeTestPlan(t, planJSON), Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Det.DriftFrames != 6 {
		t.Fatalf("DriftFrames = %d, want 24 ticks / every 4 = 6", rep.Det.DriftFrames)
	}
	if len(rep.Det.DriftEvents) != 0 {
		t.Fatalf("stationary workload fired drift events: %+v", rep.Det.DriftEvents)
	}
	found := false
	for _, v := range rep.Det.Verdicts {
		if v.Gate == "drift-events" {
			found = true
			if !v.Pass {
				t.Fatalf("drift-events gate failed: %s", v.Detail)
			}
		}
	}
	if !found {
		t.Fatal("no drift-events verdict in the det report")
	}
}
