// The scale experiment is not from the paper: it answers the million-client
// question behind the aggregation plane (crp/aggregate.go). A deployed CRP
// service cannot afford one tracker per client; the aggregation plane
// collapses clients into per-prefix ratio maps keyed through the internal/asn
// longest-prefix table. This experiment ingests a large simulated client
// population — 1M+ at full scale — under per-client tracking and under
// aggregation at several prefix granularities, and reports, per cell: state
// size (tracked entries, the plane's own byte estimate, and measured heap
// growth per client) and the accuracy cost of serving from aggregates (rank
// of the aggregate's closest-node answer within the per-client baseline
// ranking, on a sampled subset). Nothing here is timed: the benchmark's
// ingest_heavy workload measures ingest rate and agg_closest query latency
// under ingest, both over real UDP.
// The report lands in BENCH_scale.json via make bench.
//
// Determinism: ingest is partitioned across a fixed worker count by aggregate
// group, every probe is derived from (seed, client, probe) by a splitmix
// stream, probes carry a single replica (so group weight accumulation is
// order-independent exact float math), and the replica intern order is
// pre-warmed sequentially. The deterministic slice of the results — state
// counts and accuracy, no timings — can be written to -det-out; CI runs the
// quick configuration twice and byte-compares the two files.
package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"repro/crp"
	"repro/internal/asn"
	"repro/internal/netsim"
)

const (
	scaleIngestWorkers = 8   // fixed, NOT GOMAXPROCS: partitioning must not depend on the host
	scaleCandidates    = 240 // per-client-tracked candidate servers, the paper's count
	scaleProbesPer     = 8   // probes ingested per client
	scaleSamples       = 400 // accuracy-scored client subset (upper bound)
	scaleMonitorEvery  = 64  // divergence-monitor sampling
	scaleMonitorProbes = 4
	// scaleMinAgreement is set low enough that the structural mixing a
	// coarse granularity causes (a /16 group blending many distinct /24
	// behaviours) does not demote every monitored client — only genuinely
	// divergent clients (agreement near zero) leave their group, so the
	// granularity sweep measures aggregation accuracy, not demotion rate.
	scaleMinAgreement = 0.25
)

// scaleDetCell is the deterministic slice of one cell: everything here must
// be byte-identical across same-seed reruns (CI gates on it). No timings, no
// heap numbers.
type scaleDetCell struct {
	Mode          string  `json:"mode"` // "per-client" or "aggregate"
	PrefixBits    int     `json:"prefix_bits,omitempty"`
	Clients       int     `json:"clients"`
	StoreEntries  int     `json:"store_entries"` // per-client trackers incl. candidates
	Groups        int64   `json:"groups"`
	Demoted       int64   `json:"demoted"`
	Monitors      int64   `json:"monitors"`
	Interned      int64   `json:"interned"`
	StateBytes    int64   `json:"state_bytes"`
	ReductionX    float64 `json:"reduction_x"` // clients per tracked entry (groups+demoted)
	Samples       int     `json:"samples"`
	RankDeltaMean float64 `json:"rank_delta_mean"`
	RankDeltaMax  int     `json:"rank_delta_max"`
	AgreementPct  float64 `json:"agreement_pct"` // samples whose top-1 matches the baseline's
}

// scaleCell is the full BENCH_scale.json cell: the deterministic slice plus
// the measured memory.
type scaleCell struct {
	scaleDetCell
	HeapPerClientBytes float64 `json:"heap_per_client_bytes"`
}

// scaleReport is the BENCH_scale.json payload.
type scaleReport struct {
	Meta  benchMeta   `json:"meta"`
	Cells []scaleCell `json:"cells"`
}

// scaleDetReport is the -det-out payload.
type scaleDetReport struct {
	Seed  int64          `json:"seed"`
	Quick bool           `json:"quick"`
	Cells []scaleDetCell `json:"cells"`
}

// splitmix64 is the per-(client, probe) derivation stream: no bench-side
// per-client state, so the 1M-client cell costs no memory outside the
// service under test.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// scaleWorld derives the simulated client population: addresses laid out
// over /24s under 10.0.0.0/8, per-/24 and per-/16 behaviour profiles, and a
// ~2% sprinkle of divergent clients with individual profiles.
type scaleWorld struct {
	seed    int64
	clients int
	num24   int // distinct /24s; clients are dealt round-robin across them
}

func newScaleWorld(seed int64, clients int) scaleWorld {
	num24 := clients / 16
	if num24 < 64 {
		num24 = 64
	}
	if num24 > 62000 { // keep inside 10.0.0.0/8 with room for the intern warmup block
		num24 = 62000
	}
	return scaleWorld{seed: seed, clients: clients, num24: num24}
}

// addr returns client i's address: /24 index i%num24, host 1 + i/num24.
func (w scaleWorld) addr(i int) string {
	p24 := i % w.num24
	host := 1 + (i/w.num24)%250
	return fmt.Sprintf("10.%d.%d.%d", (p24>>8)&255, p24&255, host)
}

func (w scaleWorld) divergent(i int) bool {
	return splitmix64(uint64(w.seed)*0xA5A5+uint64(i))%50 == 0
}

// replica returns the replica client i's k-th probe observes. Normal clients
// follow their /24's profile — dominated by a per-/24 candidate, tempered by
// a per-/16 one — so a /24-granular aggregate reproduces them exactly while
// a /16-granular one blends 256 distinct /24 profiles (the accuracy cost the
// sweep measures). Divergent clients follow a personal profile unrelated to
// their prefix.
func (w scaleWorld) replica(i, k int) crp.ReplicaID {
	u := splitmix64(uint64(w.seed)*0x9E37 ^ uint64(i)*uint64(scaleProbesPer+1) + uint64(k))
	if w.divergent(i) {
		personal := int(splitmix64(uint64(w.seed)*0xC3C3+uint64(i)) % scaleCandidates)
		if u%10 < 9 {
			return scaleReplica(personal)
		}
		return scaleReplica(int(u>>8) % scaleCandidates)
	}
	p24 := i % w.num24
	c24 := (p24 * 13) % scaleCandidates
	c16 := ((p24 >> 8) * 7) % scaleCandidates
	switch r := u % 100; {
	case r < 50:
		return scaleReplica(c24)
	case r < 80:
		return scaleReplica(c16)
	default:
		return scaleReplica((c24 + 1) % scaleCandidates)
	}
}

func scaleReplica(j int) crp.ReplicaID {
	return crp.ReplicaID(fmt.Sprintf("R%03d", j))
}

func scaleCandidate(j int) crp.NodeID {
	return crp.NodeID(fmt.Sprintf("cand-%03d", j))
}

// scaleKeyFunc builds the /bits routing table over 10.0.0.0/8 and adapts it
// through the asn package's longest-prefix match — the aggregation plane's
// production keying path.
func scaleKeyFunc(bits int) (func(crp.NodeID) (string, bool), error) {
	routes := make(map[netip.Prefix]netsim.ASN)
	n := 1 << (bits - 8) // /bits prefixes inside 10.0.0.0/8
	for i := 0; i < n; i++ {
		v := uint32(10)<<24 | uint32(i)<<(32-bits)
		a := netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
		routes[netip.PrefixFrom(a, bits)] = netsim.ASN(i + 1)
	}
	table, err := asn.NewTable(routes)
	if err != nil {
		return nil, err
	}
	return table.KeyFunc(), nil
}

// seedScaleCandidates gives every candidate server a per-client tracker with
// a distinct replica affinity: 16 probes on its own replica, 4 on the next.
func seedScaleCandidates(svc *crp.Service, base time.Time) ([]crp.NodeID, error) {
	cands := make([]crp.NodeID, scaleCandidates)
	for j := 0; j < scaleCandidates; j++ {
		cands[j] = scaleCandidate(j)
		for k := 0; k < 20; k++ {
			r := scaleReplica(j)
			if k >= 16 {
				r = scaleReplica((j + 1) % scaleCandidates)
			}
			if err := svc.Observe(cands[j], base.Add(time.Duration(k)*time.Second), r); err != nil {
				return nil, err
			}
		}
	}
	return cands, nil
}

// warmIntern observes every replica once from a warmup block outside the
// client address space, then invalidates the block's aggregates: the intern
// table ends up populated in a fixed order before the parallel ingest
// starts, removing the one cross-worker ordering the plane would otherwise
// introduce (float folds iterate in interned-ID order).
func warmIntern(svc *crp.Service, keyOf func(crp.NodeID) (string, bool), base time.Time) error {
	warm := crp.NodeID("10.254.0.1")
	for j := 0; j < scaleCandidates; j++ {
		if err := svc.Observe(warm, base, scaleReplica(j)); err != nil {
			return err
		}
	}
	if key, ok := keyOf(warm); ok {
		svc.InvalidateAggregate(key)
	}
	return nil
}

// ingestScaleClients drives every client's probes through the service,
// partitioned across a fixed worker count by aggregation group (per-client
// mode partitions by /24, which is equivalent), so each group's probe order
// — and hence its decay points and demotion decisions — is independent of
// scheduling.
func ingestScaleClients(svc *crp.Service, w scaleWorld, keyOf func(crp.NodeID) (string, bool), base time.Time) error {
	// Assign each /24 to a worker by its aggregation key (all clients of a
	// /24 share one, at any granularity ≤ 24).
	assign := make([]uint8, w.num24)
	for p24 := 0; p24 < w.num24; p24++ {
		probe := crp.NodeID(fmt.Sprintf("10.%d.%d.1", (p24>>8)&255, p24&255))
		key := string(probe)
		if keyOf != nil {
			if k, ok := keyOf(probe); ok {
				key = k
			}
		}
		h := uint32(2166136261)
		for i := 0; i < len(key); i++ {
			h ^= uint32(key[i])
			h *= 16777619
		}
		assign[p24] = uint8(h % scaleIngestWorkers)
	}

	per24 := (w.clients + w.num24 - 1) / w.num24
	var wg sync.WaitGroup
	errs := make([]error, scaleIngestWorkers)
	for wk := 0; wk < scaleIngestWorkers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for p24 := 0; p24 < w.num24; p24++ {
				if int(assign[p24]) != wk {
					continue
				}
				for j := 0; j < per24; j++ {
					i := p24 + j*w.num24
					if i >= w.clients {
						break
					}
					node := crp.NodeID(w.addr(i))
					for k := 0; k < scaleProbesPer; k++ {
						at := base.Add(time.Duration(i*scaleProbesPer+k) * time.Second)
						if err := svc.Observe(node, at, w.replica(i, k)); err != nil {
							errs[wk] = err
							return
						}
					}
				}
			}
		}(wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// scoreScaleAccuracy compares the cell service's closest-node answers to a
// per-client baseline on a deterministic client sample. The baseline service
// carries the same candidates and each sampled client's exact probe stream
// in an ordinary tracker; the rank delta is the position of the cell's top-1
// in the baseline's full candidate ranking (0 = agreement).
func scoreScaleAccuracy(svc *crp.Service, w scaleWorld, cands []crp.NodeID, base time.Time, det *scaleDetCell) error {
	baseline := crp.NewService()
	if _, err := seedScaleCandidates(baseline, base); err != nil {
		return err
	}
	step := w.clients / scaleSamples
	if step < 1 {
		step = 1
	}
	sumDelta, matched, n := 0, 0, 0
	for i := 0; i < w.clients; i += step {
		node := crp.NodeID(w.addr(i))
		for k := 0; k < scaleProbesPer; k++ {
			at := base.Add(time.Duration(i*scaleProbesPer+k) * time.Second)
			if err := baseline.Observe(node, at, w.replica(i, k)); err != nil {
				return err
			}
		}
		best, ok, err := svc.ClosestTo(node, cands)
		if err != nil {
			return fmt.Errorf("cell ClosestTo(%s): %w", node, err)
		}
		if !ok {
			return fmt.Errorf("cell ClosestTo(%s): no candidate scored", node)
		}
		ranking, err := baseline.TopK(node, cands, len(cands))
		if err != nil {
			return fmt.Errorf("baseline TopK(%s): %w", node, err)
		}
		delta := len(ranking) // not found would score worst
		for pos, sc := range ranking {
			if sc.Node == best.Node {
				delta = pos
				break
			}
		}
		sumDelta += delta
		if delta == 0 {
			matched++
		}
		if delta > det.RankDeltaMax {
			det.RankDeltaMax = delta
		}
		n++
	}
	det.Samples = n
	det.RankDeltaMean = float64(sumDelta) / float64(n)
	det.AgreementPct = 100 * float64(matched) / float64(n)
	return nil
}

// runScaleCell runs one sweep point end to end. prefixBits == 0 means
// per-client mode (aggregation off).
func runScaleCell(seed int64, clients, prefixBits int) (scaleCell, error) {
	cell := scaleCell{}
	cell.Clients = clients
	cell.PrefixBits = prefixBits
	cell.Mode = "per-client"
	if prefixBits > 0 {
		cell.Mode = "aggregate"
	}

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	w := newScaleWorld(seed, clients)
	base := time.Unix(1_800_000_000, 0)
	svc := crp.NewService()
	var keyOf func(crp.NodeID) (string, bool)
	if prefixBits > 0 {
		var err error
		keyOf, err = scaleKeyFunc(prefixBits)
		if err != nil {
			return cell, err
		}
		if err := svc.EnableAggregation(crp.AggregatorConfig{
			KeyOf:         keyOf,
			MinAgreement:  scaleMinAgreement,
			MonitorEvery:  scaleMonitorEvery,
			MonitorProbes: scaleMonitorProbes,
		}); err != nil {
			return cell, err
		}
		if err := warmIntern(svc, keyOf, base); err != nil {
			return cell, err
		}
	}
	cands, err := seedScaleCandidates(svc, base)
	if err != nil {
		return cell, err
	}

	if err := ingestScaleClients(svc, w, keyOf, base); err != nil {
		return cell, err
	}

	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if m1.HeapAlloc > m0.HeapAlloc {
		cell.HeapPerClientBytes = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(clients)
	}

	cell.StoreEntries = len(svc.Nodes())
	info := svc.AggregateInfo()
	cell.Groups = info.Groups
	cell.Demoted = info.Demoted
	cell.Monitors = info.Monitors
	cell.Interned = info.Interned
	cell.StateBytes = info.StateBytes
	if prefixBits > 0 {
		tracked := info.Groups + info.Demoted
		if tracked > 0 {
			cell.ReductionX = float64(clients) / float64(tracked)
		}
	} else {
		cell.ReductionX = 1
	}

	if err := scoreScaleAccuracy(svc, w, cands, base, &cell.scaleDetCell); err != nil {
		return cell, err
	}
	return cell, nil
}

// runScale sweeps aggregation off/on across prefix granularities at 50k
// clients, plus the headline 1M-client aggregated cell at full scale, and
// gates the structural claims in-process: aggregation must cut tracked
// entries ≥10×, the per-client sanity cell must agree with the baseline
// exactly, and aggregate state must stay within a per-client byte budget.
func runScale(quick bool, seed int64, out, detOut string) error {
	clients := 50_000
	bigClients := 1_000_000
	grans := []int{16, 20, 24}
	if quick {
		grans = []int{16, 24}
		bigClients = 0 // CI smoke: ≥50k clients, no 1M cell
	}

	fmt.Printf("scale bench: %d clients (big cell %d), granularities %v, %d candidates, %d probes/client\n",
		clients, bigClients, grans, scaleCandidates, scaleProbesPer)

	report := scaleReport{Meta: newBenchMeta("scale", seed, quick, map[string]int64{
		"clients":        int64(clients),
		"big_clients":    int64(bigClients),
		"candidates":     scaleCandidates,
		"probes_per":     scaleProbesPer,
		"ingest_workers": scaleIngestWorkers,
	})}

	type plan struct {
		clients, bits int
	}
	plans := []plan{{clients, 0}}
	for _, g := range grans {
		plans = append(plans, plan{clients, g})
	}
	if bigClients > 0 {
		plans = append(plans, plan{bigClients, 24})
	}

	fmt.Printf("\n%-11s %-6s %9s %9s %9s %8s %8s %10s %9s %9s\n",
		"mode", "bits", "clients", "entries", "groups", "demoted", "red-x", "rank-delta", "agree%", "B/client")
	for _, pl := range plans {
		cell, err := runScaleCell(seed, pl.clients, pl.bits)
		if err != nil {
			return fmt.Errorf("scale cell (clients=%d, bits=%d): %w", pl.clients, pl.bits, err)
		}
		report.Cells = append(report.Cells, cell)
		fmt.Printf("%-11s %-6d %9d %9d %9d %8d %8.1f %10.3f %9.1f %9.0f\n",
			cell.Mode, cell.PrefixBits, cell.Clients, cell.StoreEntries, cell.Groups,
			cell.Demoted, cell.ReductionX, cell.RankDeltaMean, cell.AgreementPct,
			cell.HeapPerClientBytes)

		// In-process gates.
		if pl.bits == 0 {
			if cell.RankDeltaMean != 0 || cell.AgreementPct != 100 {
				return fmt.Errorf("scale cell (per-client): baseline disagrees with itself (mean delta %.3f, agree %.1f%%)",
					cell.RankDeltaMean, cell.AgreementPct)
			}
		} else {
			if cell.ReductionX < 10 {
				return fmt.Errorf("scale cell (bits=%d, clients=%d): %.1fx state reduction, want >= 10x",
					pl.bits, pl.clients, cell.ReductionX)
			}
			if perByte := float64(cell.StateBytes) / float64(cell.Clients); perByte > 512 {
				return fmt.Errorf("scale cell (bits=%d, clients=%d): aggregate state %.0f bytes/client, budget 512",
					pl.bits, pl.clients, perByte)
			}
			if cell.Demoted == 0 {
				return fmt.Errorf("scale cell (bits=%d, clients=%d): no divergent client was demoted — the fallback path never ran",
					pl.bits, pl.clients)
			}
		}
	}

	if detOut != "" {
		det := scaleDetReport{Seed: seed, Quick: quick}
		for _, c := range report.Cells {
			det.Cells = append(det.Cells, c.scaleDetCell)
		}
		if err := writeReport(detOut, det); err != nil {
			return err
		}
	}
	dumpObs("scale bench")
	return writeReport(out, report)
}
