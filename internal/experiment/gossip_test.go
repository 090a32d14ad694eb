package experiment

import (
	"encoding/json"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

func TestGossipMeshConvergesClean(t *testing.T) {
	out, err := RunGossip(GossipConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Check(GossipEnvelope{MaxRounds: 20}); err != nil {
		t.Fatal(err)
	}
	if out.Nodes != 120 {
		t.Fatalf("nodes = %d, want 120", out.Nodes)
	}
	if len(out.Stats) != 3 {
		t.Fatalf("stats for %d daemons, want 3", len(out.Stats))
	}
	for i, st := range out.Stats {
		if st.Rounds == 0 || st.DeltasApplied == 0 || st.DigestsSent == 0 {
			t.Fatalf("daemon %d counters flat: %+v", i, st)
		}
		if st.BadMsgs != 0 {
			t.Fatalf("daemon %d rejected %d messages on a clean mesh", i, st.BadMsgs)
		}
	}
}

// TestGossipDegradationUnder30PctLoss is the peering plane's degradation
// envelope: with 30% of gossip datagrams dropped, the mesh must still
// converge (anti-entropy repairs what rumors lose), forget must still
// propagate, and the declared round bound must hold. The activation and
// registry assertions pin that the faults actually fired and that the
// peering.* counters reached the process registry.
func TestGossipDegradationUnder30PctLoss(t *testing.T) {
	reg := obs.NewRegistry()
	out, err := RunGossip(GossipConfig{
		Seed:     7,
		Registry: reg,
		Faults: faults.Scenario{
			Seed:   7,
			Faults: []faults.Fault{{Kind: faults.PacketLoss, Rate: 0.3, Target: "gossip"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Activations[faults.PacketLoss] == 0 {
		t.Fatal("packet-loss fault never activated; the envelope check below is vacuous")
	}
	if err := out.Check(GossipEnvelope{MaxRounds: 50}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"peering.rounds", "peering.msgs", "peering.deltas_sent",
		"peering.deltas_applied", "peering.digests_sent", "peering.digest_bytes",
	} {
		if snap.Counters[name] == 0 {
			t.Fatalf("obs counter %s = 0 under loss; peering metrics not wired", name)
		}
	}
	// Loss must actually have cost something: more rounds than clean, or
	// stale/repair traffic. At minimum anti-entropy pulled entries.
	pulls := uint64(0)
	for _, st := range out.Stats {
		pulls += st.Pulls
	}
	if pulls == 0 {
		t.Log("warning: convergence needed no pulls under 30% loss (rumors sufficed)")
	}
}

// TestGossipRerunIsDeterministic pins the property the bench's CI gate
// depends on: same seed, same config => byte-identical marshaled outcome.
func TestGossipRerunIsDeterministic(t *testing.T) {
	cfg := GossipConfig{
		Seed: 11,
		Faults: faults.Scenario{
			Seed:   11,
			Faults: []faults.Fault{{Kind: faults.PacketLoss, Rate: 0.1, Target: "gossip"}},
		},
	}
	run := func() []byte {
		out, err := RunGossip(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("same-seed reruns differ:\n%s\n%s", a, b)
	}
}

func TestGossipConfigRejectsSingleDaemon(t *testing.T) {
	if _, err := RunGossip(GossipConfig{Daemons: 1, Seed: 1}); err == nil {
		t.Fatal("want error for a 1-daemon mesh")
	}
}
