// The faults experiment is not from the paper: it sweeps the deterministic
// fault-injection plane (internal/faults) across probe-loss rates and CDN
// map-staleness windows, and reports how far closest-node accuracy and SMF
// cluster quality degrade from the clean baseline at each point. Every cell
// is a full clean-vs-faulted degradation run (internal/experiment), so the
// sweep answers the operational question the paper's clean-room evaluation
// leaves open: how much substrate misbehaviour can CRP absorb before its
// positioning signal goes dark? The report lands in BENCH_faults.json via
// make bench; reruns with the same seed are byte-identical.
package main

import (
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/faults"
)

// faultCell is one sweep point: a loss rate crossed with a freeze window.
type faultCell struct {
	LossRate      float64 `json:"loss_rate"`
	FreezeMinutes int     `json:"freeze_minutes"`
	// Activations records, per fault kind, how often the plane fired in
	// this cell (zero rows inject nothing and serve as baselines).
	Activations map[faults.Kind]uint64        `json:"activations,omitempty"`
	Clean       experiment.DegradationMetrics `json:"clean"`
	Faulted     experiment.DegradationMetrics `json:"faulted"`
}

// faultsReport is the BENCH_faults.json payload.
type faultsReport struct {
	Meta  benchMeta   `json:"meta"`
	Cells []faultCell `json:"cells"`
}

// runFaultSweep runs the loss-rate x staleness-window degradation sweep.
func runFaultSweep(quick bool, seed int64, out string) error {
	params := experiment.WorldParams{Seed: seed, NumClients: 60, NumCandidates: 80, NumReplicas: 200}
	schedule := experiment.ProbeSchedule{Interval: 10 * time.Minute, Probes: 12}
	lossRates := []float64{0, 0.1, 0.3, 0.5}
	freezeMins := []int{0, 20, 40}
	if quick {
		params = experiment.WorldParams{Seed: seed, NumClients: 25, NumCandidates: 30, NumReplicas: 80}
		schedule.Probes = 8
		lossRates = []float64{0, 0.3}
		freezeMins = []int{0, 20}
	}

	fmt.Printf("faults sweep: %d clients, %d candidates, %d probes; %d loss rates x %d freeze windows\n",
		params.NumClients, params.NumCandidates, schedule.Probes, len(lossRates), len(freezeMins))

	report := faultsReport{Meta: newBenchMeta("faults", seed, quick, map[string]int64{
		"clients":        int64(params.NumClients),
		"candidates":     int64(params.NumCandidates),
		"replicas":       int64(params.NumReplicas),
		"probes":         int64(schedule.Probes),
		"loss_rates":     int64(len(lossRates)),
		"freeze_windows": int64(len(freezeMins)),
	})}

	fmt.Printf("\n%-10s %-12s %14s %14s %12s %12s\n",
		"loss", "staleness", "top1 clean", "top1 faulted", "no-signal", "good-frac")
	for _, loss := range lossRates {
		for _, fm := range freezeMins {
			sc := faults.Scenario{Seed: uint64(seed)*1000 + uint64(fm)}
			if loss > 0 {
				sc.Faults = append(sc.Faults, faults.Fault{Kind: faults.ProbeLoss, Rate: loss})
			}
			if fm > 0 {
				// Freeze the CDN map for fm minutes starting mid-schedule,
				// emulating staleness across many TTL windows.
				start := schedule.End() / 3
				sc.Faults = append(sc.Faults, faults.Fault{
					Kind:  faults.CDNFreeze,
					Start: faults.Duration(start),
					Stop:  faults.Duration(start + time.Duration(fm)*time.Minute),
				})
			}
			outc, err := experiment.RunDegradation(experiment.DegradationConfig{
				Params:   params,
				Schedule: schedule,
				Faults:   sc,
			})
			if err != nil {
				return fmt.Errorf("faults sweep (loss=%.2f, freeze=%dm): %w", loss, fm, err)
			}
			cell := faultCell{
				LossRate:      loss,
				FreezeMinutes: fm,
				Activations:   outc.Activations,
				Clean:         outc.Clean,
				Faulted:       outc.Faulted,
			}
			if len(cell.Activations) == 0 {
				cell.Activations = nil
			}
			report.Cells = append(report.Cells, cell)
			fmt.Printf("%-10.2f %-12s %14.2f %14.2f %12.3f %12.3f\n",
				loss, fmt.Sprintf("%dm", fm),
				outc.Clean.MeanTop1Rank, outc.Faulted.MeanTop1Rank,
				outc.Faulted.FracNoSignal, outc.Faulted.GoodClusterFrac)
		}
	}
	dumpObs("faults sweep")
	return writeReport(out, report)
}
