package crp

import (
	"errors"
	"math"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The aggregation plane collapses per-client tracker entries into per-prefix
// aggregate ratio maps, the million-client scaling move the paper's §III-B
// service shape needs: clients behind the same routing prefix (or LDNS) see
// near-identical redirection behaviour (Gürsun's routing-aware partitioning,
// PAPERS.md), so one aggregate entry can answer positioning queries for
// thousands of clients. The representation is deliberately compact — replica
// IDs interned to uint32s, per-group weights in SoA slices instead of
// per-node maps, served vectors quantized to 16-bit steps — so aggregate
// state is bounded by (prefixes x replicas-per-prefix), not by client count.
//
// Divergent clients are the accuracy escape hatch: a deterministic 1-in-N
// sample of clients keeps a small probe reservoir, and a sampled client
// whose recent redirections disagree with its group's map (cosine below
// MinAgreement) is demoted: the reservoir becomes its store record, and a
// keyed client is per-client exactly when the store holds a live record for
// it, however the record got there. Queries resolve the store first, so
// demotion is transparent to callers. DESIGN.md "Aggregate" develops the
// design and its limits (groups are a local ingest compaction: they are
// neither replicated nor checkpointed).

// AggregatorConfig shapes the Service's aggregation plane; see
// Service.EnableAggregation.
type AggregatorConfig struct {
	// KeyOf maps a node to its aggregation key (e.g. the routing prefix
	// covering its address). Nodes for which ok is false — candidate
	// servers with symbolic names, typically — always get per-client
	// trackers. Required; must be safe for concurrent use.
	KeyOf func(NodeID) (string, bool)
	// MinAgreement is the cosine agreement below which a monitored client
	// is demoted to per-client tracking. Default 0.5.
	MinAgreement float64
	// MonitorEvery samples 1-in-N keyed clients (deterministically, by ID
	// hash) for divergence monitoring; 1 monitors every client. Default 64.
	MonitorEvery int
	// MonitorProbes is the per-monitored-client probe reservoir length used
	// for the divergence check (and for seeding the tracker on demotion).
	// Default 8.
	MonitorProbes int
}

func (c *AggregatorConfig) setDefaults() {
	if c.MinAgreement <= 0 {
		c.MinAgreement = 0.5
	}
	if c.MonitorEvery <= 0 {
		c.MonitorEvery = 64
	}
	if c.MonitorProbes <= 0 {
		c.MonitorProbes = 8
	}
}

// AggregateInfo is a point-in-time summary of the aggregation plane's state.
type AggregateInfo struct {
	Enabled  bool
	Groups   int64 // live aggregate ratio maps
	Demoted  int64 // demotions to per-client tracking this plane made
	Monitors int64 // clients under divergence monitoring
	Interned int64 // distinct replica IDs in the intern table
	// StateBytes is the plane's bookkeeping estimate of its own footprint
	// (groups, monitors, intern table) — the RSS proxy the scale bench and
	// the daemon's stats op report.
	StateBytes int64
}

// Aggregation-plane instruments, process-wide like svcMetrics. The fallback
// ppm gauge is derived from the hit/fallback counters on every resolution so
// the daemon's stats op can report the ratio without arithmetic client-side.
var aggMetrics = struct {
	observes   *obs.Counter // probes absorbed into an aggregate
	hits       *obs.Counter // client resolutions served from an aggregate
	fallbacks  *obs.Counter // keyed-client resolutions served per-client
	demotions  *obs.Counter
	groups     *obs.Gauge
	demoted    *obs.Gauge
	monitors   *obs.Gauge
	interned   *obs.Gauge
	stateBytes *obs.Gauge
	fallback   *obs.Gauge // fallbacks-per-million resolutions
}{
	observes:   obs.Default().Counter("crp.aggregate.observes"),
	hits:       obs.Default().Counter("crp.aggregate.hits"),
	fallbacks:  obs.Default().Counter("crp.aggregate.fallbacks"),
	demotions:  obs.Default().Counter("crp.aggregate.demotions"),
	groups:     obs.Default().Gauge("crp.aggregate.groups"),
	demoted:    obs.Default().Gauge("crp.aggregate.demoted"),
	monitors:   obs.Default().Gauge("crp.aggregate.monitors"),
	interned:   obs.Default().Gauge("crp.aggregate.interned"),
	stateBytes: obs.Default().Gauge("crp.aggregate.state_bytes"),
	fallback:   obs.Default().Gauge("crp.aggregate.fallback_ppm"),
}

// noteResolution updates the hit/fallback counters and the derived ppm gauge.
func noteResolution(fallback bool) {
	if fallback {
		aggMetrics.fallbacks.Inc()
	} else {
		aggMetrics.hits.Inc()
	}
	f := aggMetrics.fallbacks.Value()
	total := f + aggMetrics.hits.Value()
	aggMetrics.fallback.Set(int64(f * 1_000_000 / total))
}

const (
	aggShardCount = 64 // fixed power of two; aggregation keys hash here
	// aggRecompileEvery bounds served-vector staleness: a group's cached
	// compiled vector is reused until this many probes have landed since it
	// was built. Positioning ratios move slowly (one probe shifts a
	// 4096-probe group by <0.03%), so queries stay allocation-free under
	// continuous ingest instead of recompiling per mutation.
	aggRecompileEvery = 16
	// aggDecayEvery halves a group's accumulated weights every time its
	// probe count reaches this bound, so old redirection history fades
	// instead of dominating forever (the windowing analogue of WithWindow at
	// aggregate granularity).
	aggDecayEvery = 4096
	// aggQuantSteps is the quantization grid of served weights: ratios are
	// snapped to 1/65535 steps before normalization, which is what lets the
	// weights live in 16 bits when serialized and bounds the accuracy cost
	// of the compact representation.
	aggQuantSteps = 65535
)

// internTable interns replica IDs to dense uint32s, shared by every group so
// each distinct replica name is stored once process-wide.
type internTable struct {
	mu    sync.RWMutex
	idx   map[ReplicaID]uint32
	names []ReplicaID
}

func (it *internTable) intern(r ReplicaID) uint32 {
	it.mu.RLock()
	i, ok := it.idx[r]
	it.mu.RUnlock()
	if ok {
		return i
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	if i, ok := it.idx[r]; ok {
		return i
	}
	// The table outlives every request, so it keeps its own copy: r may be
	// cut from a decoded list's shared backing.
	r = ReplicaID(strings.Clone(string(r)))
	i = uint32(len(it.names))
	it.names = append(it.names, r)
	it.idx[r] = i
	aggMetrics.interned.Set(int64(len(it.names)))
	return i
}

func (it *internTable) name(i uint32) ReplicaID {
	it.mu.RLock()
	defer it.mu.RUnlock()
	return it.names[i]
}

func (it *internTable) size() int {
	it.mu.RLock()
	defer it.mu.RUnlock()
	return len(it.names)
}

// aggGroup is one aggregate ratio map in SoA form: interned replica IDs
// sorted ascending with their accumulated weights alongside — no per-node
// map, no per-probe history. version counts mutations; the served compiled
// vector is cached until aggRecompileEvery probes of staleness.
type aggGroup struct {
	ids    []uint32
	w      []float32
	probes uint64
	total  float64 // accumulated probe weight (decays with the weights)

	version    uint64
	vec        ratioVec
	vecVersion uint64
	vecValid   bool
}

// add absorbs one probe: total weight 1 split evenly across its replicas,
// matching Tracker's per-probe weighting so aggregate and per-client maps
// live on the same scale.
func (g *aggGroup) add(interned []uint32) {
	per := float32(1) / float32(len(interned))
	for _, id := range interned {
		pos := sort.Search(len(g.ids), func(i int) bool { return g.ids[i] >= id })
		if pos < len(g.ids) && g.ids[pos] == id {
			g.w[pos] += per
			continue
		}
		g.ids = append(g.ids, 0)
		g.w = append(g.w, 0)
		copy(g.ids[pos+1:], g.ids[pos:])
		copy(g.w[pos+1:], g.w[pos:])
		g.ids[pos], g.w[pos] = id, per
	}
	g.probes++
	g.total++
	g.version++
	if g.probes >= aggDecayEvery {
		g.decay()
	}
}

// decay halves every weight and prunes entries that have faded to noise, so
// a group tracks the current mapping epoch instead of its whole history and
// its SoA slices cannot grow without bound under replica churn.
func (g *aggGroup) decay() {
	kept := 0
	for i := range g.ids {
		w := g.w[i] * 0.5
		if w < 1e-4 {
			continue
		}
		g.ids[kept], g.w[kept] = g.ids[i], w
		kept++
	}
	g.ids, g.w = g.ids[:kept], g.w[:kept]
	g.probes /= 2
	g.total *= 0.5
	g.version++
}

// cosineCounts is the divergence kernel: cosine between the group's raw
// weights and a monitored client's reservoir counts, merge-joined in
// interned-ID space (both sides sorted ascending). No allocation.
func (g *aggGroup) cosineCounts(ids []uint32, counts []float32) float64 {
	dot, na, nb := 0.0, 0.0, 0.0
	for _, w := range g.w {
		na += float64(w) * float64(w)
	}
	for _, c := range counts {
		nb += float64(c) * float64(c)
	}
	i, j := 0, 0
	for i < len(g.ids) && j < len(ids) {
		switch {
		case g.ids[i] < ids[j]:
			i++
		case g.ids[i] > ids[j]:
			j++
		default:
			dot += float64(g.w[i]) * float64(counts[j])
			i++
			j++
		}
	}
	if dot == 0 || na == 0 || nb == 0 {
		return 0
	}
	sim := dot / (math.Sqrt(na) * math.Sqrt(nb))
	if sim > 1 {
		return 1
	}
	return sim
}

// compileLocked rebuilds the served vector if it is stale: weights quantized
// to the aggQuantSteps grid, renormalized, sorted by replica name so the
// result merge-joins against per-client ratioVecs. Caller holds the shard
// lock.
func (g *aggGroup) compileLocked(it *internTable) ratioVec {
	if g.vecValid && g.version-g.vecVersion < aggRecompileEvery {
		return g.vec
	}
	var wmax float32
	for _, w := range g.w {
		if w > wmax {
			wmax = w
		}
	}
	type pair struct {
		name ReplicaID
		q    uint32
	}
	pairs := make([]pair, 0, len(g.ids))
	sumQ := uint64(0)
	for i, id := range g.ids {
		q := uint32(math.Round(float64(g.w[i]) / float64(wmax) * aggQuantSteps))
		if q == 0 {
			continue
		}
		pairs = append(pairs, pair{it.name(id), q})
		sumQ += uint64(q)
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].name < pairs[b].name })
	ids := make([]ReplicaID, len(pairs))
	vals := make([]float64, len(pairs))
	s := 0.0
	for i, p := range pairs {
		ids[i] = p.name
		v := float64(p.q) / float64(sumQ)
		vals[i] = v
		s += v * v
	}
	g.vec = ratioVec{ids: ids, vals: vals, norm: math.Sqrt(s)}
	g.vecVersion, g.vecValid = g.version, true
	return g.vec
}

// aggMonitor is the divergence reservoir of one sampled client: its last
// MonitorProbes probes, interned, with timestamps so demotion can seed the
// per-client tracker.
type aggMonitor struct {
	probes []monProbe // ring, oldest first once full
	next   int
	full   bool
}

type monProbe struct {
	at  time.Time
	ids []uint32
}

func (m *aggMonitor) push(p monProbe, cap int) {
	if len(m.probes) < cap {
		m.probes = append(m.probes, p)
		return
	}
	m.probes[m.next] = p
	m.next = (m.next + 1) % len(m.probes)
	m.full = true
}

// chronological returns the reservoir oldest-first.
func (m *aggMonitor) chronological() []monProbe {
	out := make([]monProbe, 0, len(m.probes))
	out = append(out, m.probes[m.next:]...)
	out = append(out, m.probes[:m.next]...)
	return out
}

// counts folds the reservoir into per-replica counts in interned-ID space
// (sorted ascending), each probe contributing weight 1 split across its
// replicas — the same scale aggGroup accumulates on.
func (m *aggMonitor) counts() ([]uint32, []float32) {
	ids := make([]uint32, 0, 8)
	counts := make([]float32, 0, 8)
	for _, p := range m.probes {
		per := float32(1) / float32(len(p.ids))
		for _, id := range p.ids {
			pos := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
			if pos < len(ids) && ids[pos] == id {
				counts[pos] += per
				continue
			}
			ids = append(ids, 0)
			counts = append(counts, 0)
			copy(ids[pos+1:], ids[pos:])
			copy(counts[pos+1:], counts[pos:])
			ids[pos], counts[pos] = id, per
		}
	}
	return ids, counts
}

// aggShard owns one partition of the aggregation key space: its groups and
// the monitored clients whose keys hash here.
type aggShard struct {
	mu       sync.Mutex
	groups   map[string]*aggGroup
	monitors map[NodeID]*aggMonitor
}

// aggregator is the aggregation plane of one Service.
type aggregator struct {
	cfg    AggregatorConfig
	intern internTable
	shards [aggShardCount]aggShard
	store  *store // the Service's: a live record makes a client per-client

	// bytes is the running footprint estimate (the RSS proxy): slice slots,
	// map entries and interned names are charged as they are created.
	bytes    atomic.Int64
	groupsN  atomic.Int64
	demotedN atomic.Int64
	monitorN atomic.Int64
}

func newAggregator(cfg AggregatorConfig, st *store) *aggregator {
	cfg.setDefaults()
	a := &aggregator{cfg: cfg, store: st}
	a.intern.idx = make(map[ReplicaID]uint32)
	for i := range a.shards {
		a.shards[i].groups = make(map[string]*aggGroup)
		a.shards[i].monitors = make(map[NodeID]*aggMonitor)
	}
	return a
}

// Footprint estimates charged to the bytes gauge. They deliberately
// overcount a little (map buckets amortized per entry) so the proxy bounds
// real usage from above rather than flattering it.
const (
	aggGroupBytes   = 144 // struct + map entry + slice headers
	aggSlotBytes    = 8   // one (uint32 id, float32 weight) SoA slot
	aggMonitorBytes = 112 // struct + map entry
	aggProbeBytes   = 48  // monProbe header + a few interned IDs
	aggInternBytes  = 40  // name string + map entry + slice slot
)

func (a *aggregator) addBytes(n int64) {
	aggMetrics.stateBytes.Set(a.bytes.Add(n))
}

func fnvKey(key string) uint32 {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

func (a *aggregator) shardFor(key string) *aggShard {
	return &a.shards[fnvKey(key)&(aggShardCount-1)]
}

// monitored reports whether node is in the deterministic 1-in-MonitorEvery
// divergence sample.
func (a *aggregator) monitored(node NodeID) bool {
	if a.cfg.MonitorEvery <= 1 {
		return true
	}
	return fnvKey(string(node))%uint32(a.cfg.MonitorEvery) == 0
}

// observe reports whether the plane took a probe: absorbed into the client's
// group or, when a sampled client's reservoir disagrees with it, written with
// the reservoir as the client's store record. It declines unkeyed clients and
// those with a live record, checked under the aggregate shard lock (order:
// aggregate shard → store shard → hook) so no probe slips past a demotion.
func (a *aggregator) observe(node NodeID, at time.Time, replicas []ReplicaID) bool {
	key, ok := a.cfg.KeyOf(node)
	if !ok {
		return false
	}
	interned := make([]uint32, len(replicas))
	for i, r := range replicas {
		interned[i] = a.intern.intern(r)
	}

	sh := a.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, tracked := a.store.get(node); tracked {
		return false
	}
	g := sh.groups[key]
	if g == nil {
		g = &aggGroup{}
		sh.groups[key] = g
		aggMetrics.groups.Set(a.groupsN.Add(1))
		a.addBytes(aggGroupBytes + int64(len(key)))
	}

	if a.monitored(node) {
		m := sh.monitors[node]
		if m == nil {
			m = &aggMonitor{}
			sh.monitors[node] = m
			aggMetrics.monitors.Set(a.monitorN.Add(1))
			a.addBytes(aggMonitorBytes + int64(len(node)))
		}
		if len(m.probes) < a.cfg.MonitorProbes {
			a.addBytes(aggProbeBytes)
		}
		m.push(monProbe{at: at, ids: interned}, a.cfg.MonitorProbes)
		// Divergence is only meaningful once the reservoir is full and the
		// group holds more history than this client alone could have
		// contributed to it.
		if m.full && g.probes > uint64(2*a.cfg.MonitorProbes) &&
			g.cosineCounts(m.counts()) < a.cfg.MinAgreement {
			probes := m.chronological()
			a.store.observe(node, func(t *Tracker) {
				for _, p := range probes {
					names := make([]ReplicaID, len(p.ids))
					for i, id := range p.ids {
						names[i] = a.intern.name(id)
					}
					t.Observe(p.at, names...)
				}
			})
			delete(sh.monitors, node)
			aggMetrics.monitors.Set(a.monitorN.Add(-1))
			a.addBytes(-int64(aggMonitorBytes + len(node) + len(probes)*aggProbeBytes))
			aggMetrics.demoted.Set(a.demotedN.Add(1))
			aggMetrics.demotions.Inc()
			return true
		}
	}

	slots := len(g.ids)
	g.add(interned)
	if grew := len(g.ids) - slots; grew != 0 {
		a.addBytes(int64(grew) * aggSlotBytes)
	}
	aggMetrics.observes.Inc()
	return true
}

// vecFor resolves a client to its aggregate's served vector. ok is false for
// unkeyed clients and keys with no aggregate. Callers consult the store
// first: a client with a live record is answered from it.
func (a *aggregator) vecFor(node NodeID) (ratioVec, bool) {
	key, ok := a.cfg.KeyOf(node)
	if !ok {
		return ratioVec{}, false
	}
	sh := a.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	g := sh.groups[key]
	if g == nil || len(g.ids) == 0 {
		return ratioVec{}, false
	}
	// The compiled vector's slices are freshly allocated per compile and
	// never mutated afterwards, so returning it past the lock is safe.
	return g.compileLocked(&a.intern), true
}

// keyed reports whether the aggregation plane claims node (used for
// fallback-ratio accounting on the query path).
func (a *aggregator) keyed(node NodeID) bool {
	_, ok := a.cfg.KeyOf(node)
	return ok
}

// invalidate drops the aggregate group for key, returning whether one
// existed. Member clients fall back to their store record if they have one
// or, until re-observed, to ErrUnknownNode — queries racing an invalidation
// see either the old vector or a clean miss, never a torn one.
func (a *aggregator) invalidate(key string) bool {
	sh := a.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	g, ok := sh.groups[key]
	if !ok {
		return false
	}
	delete(sh.groups, key)
	aggMetrics.groups.Set(a.groupsN.Add(-1))
	a.addBytes(-int64(aggGroupBytes + len(key) + len(g.ids)*aggSlotBytes))
	return true
}

func (a *aggregator) info() AggregateInfo {
	return AggregateInfo{
		Enabled:    true,
		Groups:     a.groupsN.Load(),
		Demoted:    a.demotedN.Load(),
		Monitors:   a.monitorN.Load(),
		Interned:   int64(a.intern.size()),
		StateBytes: a.bytes.Load(),
	}
}

// PrefixKeyFunc returns a KeyOf that aggregates IPv4-addressed clients by
// their /bits prefix (e.g. bits=24 keys "10.1.2.77" as "10.1.2.0/24").
// NodeIDs that do not parse as IPv4 addresses — candidate servers with
// symbolic names — are declined and stay on the per-client path. It is the
// fixed-granularity alternative to routing-table-aware keying
// (asn.Table.KeyFunc), and what crpd's -aggregate flag installs.
func PrefixKeyFunc(bits int) func(NodeID) (string, bool) {
	return func(n NodeID) (string, bool) {
		addr, err := netip.ParseAddr(string(n))
		if err != nil || !addr.Is4() {
			return "", false
		}
		p, err := addr.Prefix(bits)
		if err != nil {
			return "", false
		}
		return p.String(), true
	}
}

// EnableAggregation switches the service's ingest path to prefix/LDNS
// aggregation (see the package comment at the top of this file). Call once,
// before the service takes traffic; it is not synchronized against in-flight
// operations.
func (s *Service) EnableAggregation(cfg AggregatorConfig) error {
	if cfg.KeyOf == nil {
		return errors.New("crp: AggregatorConfig.KeyOf is required")
	}
	if s.agg != nil {
		return errors.New("crp: aggregation already enabled")
	}
	s.agg = newAggregator(cfg, s.store)
	return nil
}

// AggregateInfo reports the aggregation plane's current state; the zero
// value (Enabled false) when aggregation is off.
func (s *Service) AggregateInfo() AggregateInfo {
	if s.agg == nil {
		return AggregateInfo{}
	}
	return s.agg.info()
}

// InvalidateAggregate drops the aggregate ratio map for key (e.g. when a
// routing change makes a prefix's history meaningless). It reports whether
// a group existed. Clients of the group keep resolving through their
// per-client state if they have any; others read as unknown until
// re-observed.
func (s *Service) InvalidateAggregate(key string) bool {
	if s.agg == nil {
		return false
	}
	return s.agg.invalidate(key)
}
