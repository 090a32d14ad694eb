// The gossip experiment is not from the paper: it sweeps the peering
// plane's convergence behaviour across rumor fanout and gossip-link packet
// loss. Every cell is a full multi-daemon convergence run
// (experiment.RunGossip): a mesh of daemons fed disjoint probe streams over
// a deterministic in-memory packet substrate, pumped until their stores
// reach identical shard digests, then checked byte-for-byte against a
// single daemon fed the merged stream, and finally made to propagate a
// Forget. The report lands in BENCH_gossip.json via make bench; reruns with
// the same seed are byte-identical, which CI gates on.
package main

import (
	"fmt"

	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/obs"
)

// gossipCell is one sweep point: a rumor fanout crossed with a gossip-link
// loss rate.
type gossipCell struct {
	Fanout   int                       `json:"fanout"`
	LossRate float64                   `json:"loss_rate"`
	Outcome  *experiment.GossipOutcome `json:"outcome"`
}

// gossipReport is the BENCH_gossip.json payload.
type gossipReport struct {
	Meta  benchMeta    `json:"meta"`
	Cells []gossipCell `json:"cells"`
}

// runGossipBench sweeps fanout x loss and reports convergence rounds,
// replication fidelity and per-daemon gossip traffic at each point.
func runGossipBench(quick bool, seed int64, out string) error {
	fanouts := []int{1, 2, 3}
	losses := []float64{0, 0.1, 0.3}
	daemons, nodesPer := 3, 40
	if quick {
		fanouts = []int{1, 2}
		losses = []float64{0, 0.3}
		nodesPer = 20
	}

	fmt.Printf("gossip sweep: %d daemons, %d nodes/daemon; %d fanouts x %d loss rates\n",
		daemons, nodesPer, len(fanouts), len(losses))

	report := gossipReport{Meta: newBenchMeta("gossip", seed, quick, map[string]int64{
		"daemons":          int64(daemons),
		"nodes_per_daemon": int64(nodesPer),
		"fanouts":          int64(len(fanouts)),
		"loss_rates":       int64(len(losses)),
	})}

	fmt.Printf("\n%-8s %-8s %10s %10s %12s %12s %12s\n",
		"fanout", "loss", "rounds", "forget", "snap-match", "deltas", "pulls")
	for _, fanout := range fanouts {
		for li, loss := range losses {
			cfg := experiment.GossipConfig{
				Daemons:        daemons,
				NodesPerDaemon: nodesPer,
				Fanout:         fanout,
				Seed:           uint64(seed),
				Registry:       obs.Default(),
			}
			if loss > 0 {
				cfg.Faults = faults.Scenario{
					// Distinct per-cell seeds so loss decisions differ
					// across cells while staying replayable.
					Seed:   uint64(seed)*1000 + uint64(fanout)*10 + uint64(li),
					Faults: []faults.Fault{{Kind: faults.PacketLoss, Rate: loss, Target: "gossip"}},
				}
			}
			outc, err := experiment.RunGossip(cfg)
			if err != nil {
				return fmt.Errorf("gossip sweep (fanout=%d, loss=%.2f): %w", fanout, loss, err)
			}
			if err := outc.Check(experiment.GossipEnvelope{MaxRounds: 50}); err != nil {
				return fmt.Errorf("gossip sweep (fanout=%d, loss=%.2f): %w", fanout, loss, err)
			}
			report.Cells = append(report.Cells, gossipCell{Fanout: fanout, LossRate: loss, Outcome: outc})

			deltas, pulls := uint64(0), uint64(0)
			for _, st := range outc.Stats {
				deltas += st.DeltasSent
				pulls += st.Pulls
			}
			fmt.Printf("%-8d %-8.2f %10d %10d %12v %12d %12d\n",
				fanout, loss, outc.RoundsToConverge, outc.ForgetRounds, outc.SnapshotMatch, deltas, pulls)
		}
	}
	dumpObs("gossip sweep")
	return writeReport(out, report)
}
