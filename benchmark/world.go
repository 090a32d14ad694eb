package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/crp"
)

// sizes is the scale of every world. fullSizes is the benchmark; the tests
// shrink it so every workload runs in milliseconds.
type sizes struct {
	metros, perMetro int // metro world: metros × perMetro nodes
	aggClients       int // aggregated IPv4 clients
	agg24s           int // distinct /24s the clients are dealt across
	gossipObserves   int // nodes observed per gossip cycle
}

var fullSizes = sizes{metros: 200, perMetro: 250, aggClients: 1_000_000, agg24s: 62_000, gossipObserves: 500}

const (
	window         = 10 // crp.WithWindow(10), the paper's recommended probe window
	metroReplicas  = 3  // local replicas per metro
	probeReplicas  = 2  // replicas per probe: Akamai answers with two A records
	mirrorEvery    = 100
	aggCandidates  = 240 // the paper's candidate-server count
	aggProbesPer   = 8
	aggIngestParts = 2 // fixed, not NumCPU: the partition must not depend on the host
)

var (
	seedBase    = time.Unix(1_700_000_000, 0)
	serviceOpts = []crp.TrackerOption{crp.WithWindow(window)}
)

// splitmix64 derives independent streams from (seed, stream, index) without
// per-item state, as the -exp scale world does.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// newRNG returns the deterministic generator of one named stream of a seed.
func newRNG(seed int64, stream string) *rand.Rand {
	h := uint64(seed)
	for i := 0; i < len(stream); i++ {
		h = splitmix64(h ^ uint64(stream[i]))
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// probe is one redirection observation of the metro world: the indices of
// the replicas one lookup returned.
type probe [probeReplicas]uint16

// metroWorld is the per-client world: metros × perMetro nodes, each seeded
// with a full window of probes drawn from its metro's distribution (65 % /
// 20 % / 10 % over three local replicas, 5 % a far metro's first replica).
// Ingest draws from the same distribution, so the store's shape is
// stationary however long a window runs.
//
// The world is plain data: set-up replays it into a fresh service, and the
// checks read it as the reference model.
type metroWorld struct {
	sz       sizes
	nodes    []string // "m017-n203"
	replicas []string // "m017-r1", index metro*metroReplicas+j
	seeded   []probe  // nodes × window, node-major

	// mirror holds the current probe window of every mirrorEvery-th node,
	// updated by whichever stream is writing. One stream writes at a time.
	mu     sync.Mutex
	mirror map[int][]probe
}

func newMetroWorld(seed int64, sz sizes) *metroWorld {
	w := &metroWorld{sz: sz, mirror: make(map[int][]probe)}
	for m := 0; m < sz.metros; m++ {
		for j := 0; j < metroReplicas; j++ {
			w.replicas = append(w.replicas, fmt.Sprintf("m%03d-r%d", m, j))
		}
		for n := 0; n < sz.perMetro; n++ {
			w.nodes = append(w.nodes, fmt.Sprintf("m%03d-n%03d", m, n))
		}
	}
	rng := newRNG(seed, "metro-seed")
	w.seeded = make([]probe, len(w.nodes)*window)
	for i := range w.nodes {
		for k := 0; k < window; k++ {
			w.seeded[i*window+k] = w.draw(rng, i)
		}
	}
	w.resetMirror()
	return w
}

// draw returns one probe of node i from its metro's distribution.
func (w *metroWorld) draw(rng *rand.Rand, i int) probe {
	home := i / w.sz.perMetro
	var p probe
	for j := range p {
		metro, local := home, 0
		switch r := rng.Float64(); {
		case r < 0.65:
		case r < 0.85:
			local = 1
		case r < 0.95:
			local = 2
		default:
			metro = rng.Intn(w.sz.metros)
		}
		p[j] = uint16(metro*metroReplicas + local)
	}
	return p
}

func (w *metroWorld) resetMirror() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := 0; i < len(w.nodes); i += mirrorEvery {
		w.mirror[i] = append([]probe(nil), w.seeded[i*window:(i+1)*window]...)
	}
}

// observed records a probe the harness sent for node i.
func (w *metroWorld) observed(i int, p probe) {
	if i%mirrorEvery != 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	win := append(w.mirror[i], p)
	if len(win) > window {
		win = win[len(win)-window:]
	}
	w.mirror[i] = win
}

// ratioMap is the reference model: the ratio map of a probe window, in
// float64 over a plain map, each probe weighing 1/len(window) split evenly
// over its replicas.
func (w *metroWorld) ratioMap(win []probe) crp.RatioMap {
	m := make(crp.RatioMap)
	for _, p := range win {
		for _, r := range p {
			m[crp.ReplicaID(w.replicas[r])] += 1 / float64(len(win)) / probeReplicas
		}
	}
	return m
}

func (w *metroWorld) seededMap(i int) crp.RatioMap {
	return w.ratioMap(w.seeded[i*window : (i+1)*window])
}

func (w *metroWorld) replicaIDs(p probe) []crp.ReplicaID {
	out := make([]crp.ReplicaID, len(p))
	for j, r := range p {
		out[j] = crp.ReplicaID(w.replicas[r])
	}
	return out
}

// seedInto replays the seeded windows of the nodes pick selects into svc.
func (w *metroWorld) seedInto(svc *crp.Service, pick func(i int) bool) error {
	for i, name := range w.nodes {
		if !pick(i) {
			continue
		}
		for k := 0; k < window; k++ {
			at := seedBase.Add(time.Duration(k) * time.Minute)
			if err := svc.Observe(crp.NodeID(name), at, w.replicaIDs(w.seeded[i*window+k])...); err != nil {
				return err
			}
		}
	}
	return nil
}

// aggWorld is the -exp scale population: IPv4 clients dealt round-robin over
// /24s under 10.0.0.0/8, each following its /24's profile (50 % a per-/24
// replica, 30 % a per-/16 one, 20 % the per-/24 replica's neighbour), 2 % of
// them following a personal profile instead, plus aggCandidates per-client
// candidate servers. Nothing is stored: every probe is a hash of (seed,
// client, probe index).
type aggWorld struct {
	seed  int64
	sz    sizes
	cands []string
}

func newAggWorld(seed int64, sz sizes) *aggWorld {
	w := &aggWorld{seed: seed, sz: sz}
	for j := 0; j < aggCandidates; j++ {
		w.cands = append(w.cands, fmt.Sprintf("cand-%03d", j))
	}
	return w
}

func (w *aggWorld) p24(i int) int { return i % w.sz.agg24s }

func (w *aggWorld) addr(i int) string {
	p24 := w.p24(i)
	return fmt.Sprintf("10.%d.%d.%d", (p24>>8)&255, p24&255, 1+(i/w.sz.agg24s)%250)
}

func (w *aggWorld) divergent(i int) bool {
	return splitmix64(uint64(w.seed)*0xA5A5+uint64(i))%50 == 0
}

// expected is the candidate a non-divergent client's /24 profile points at.
func (w *aggWorld) expected(i int) string { return w.cands[(w.p24(i)*13)%aggCandidates] }

var aggReplicaNames = func() (names [aggCandidates]crp.ReplicaID) {
	for j := range names {
		names[j] = crp.ReplicaID(fmt.Sprintf("R%03d", j))
	}
	return names
}()

func aggReplica(j int) crp.ReplicaID { return aggReplicaNames[j%aggCandidates] }

func (w *aggWorld) replica(i, k int) crp.ReplicaID {
	u := splitmix64(uint64(w.seed)*0x9E37 ^ uint64(i)*uint64(aggProbesPer+1) + uint64(k))
	if w.divergent(i) {
		if u%10 < 9 {
			return aggReplica(int(splitmix64(uint64(w.seed)*0xC3C3+uint64(i)) % aggCandidates))
		}
		return aggReplica(int(u>>8) % aggCandidates)
	}
	c24 := w.p24(i) * 13
	switch r := u % 100; {
	case r < 50:
		return aggReplica(c24)
	case r < 80:
		return aggReplica((w.p24(i) >> 8) * 7)
	default:
		return aggReplica(c24 + 1)
	}
}

// seedInto builds the aggregated store: the intern table warmed in a fixed
// order, the candidates' per-client trackers (16 probes on their own replica,
// 4 on the next), then every client's probes, partitioned by /24 over a fixed
// number of goroutines so each group sees its probes in a fixed order.
func (w *aggWorld) seedInto(svc *crp.Service) error {
	keyOf := crp.PrefixKeyFunc(24)
	if err := svc.EnableAggregation(crp.AggregatorConfig{KeyOf: keyOf}); err != nil {
		return err
	}
	const warm = crp.NodeID("10.254.0.1") // outside the client address space
	for j := 0; j < aggCandidates; j++ {
		if err := svc.Observe(warm, seedBase, aggReplica(j)); err != nil {
			return err
		}
	}
	if key, ok := keyOf(warm); ok {
		svc.InvalidateAggregate(key)
	}
	for j, c := range w.cands {
		for k := 0; k < 20; k++ {
			r := aggReplica(j)
			if k >= 16 {
				r = aggReplica(j + 1)
			}
			if err := svc.Observe(crp.NodeID(c), seedBase.Add(time.Duration(k)*time.Second), r); err != nil {
				return err
			}
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, aggIngestParts)
	for part := 0; part < aggIngestParts; part++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < w.sz.aggClients; i++ {
				if w.p24(i)%aggIngestParts != part {
					continue
				}
				node := crp.NodeID(w.addr(i))
				for k := 0; k < aggProbesPer; k++ {
					at := seedBase.Add(time.Duration(i*aggProbesPer+k) * time.Second)
					if err := svc.Observe(node, at, w.replica(i, k)); err != nil {
						errs[part] = err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
