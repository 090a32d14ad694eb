// Package cdn simulates an Akamai-like content distribution network: a set
// of replica servers deployed across the topology's metros, and a DNS-driven
// mapping system that redirects each querying LDNS to the replicas its
// (noisy, drifting) measurements currently rank lowest-latency.
//
// The CRP paper's prior work established that Akamai redirections track
// network conditions and are refreshed on the order of tens of seconds; this
// mapping system reproduces that behaviour: answers change across mapping
// epochs because both the monitoring measurements and per-replica load vary,
// so nearby LDNSes accumulate overlapping — but not identical — replica
// sets, which is exactly the signal CRP consumes.
package cdn

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// Mapping-decision instruments, registered in the default obs registry:
// how often the mapping system localizes an answer versus handing out the
// global default set (the "owned-domain" answers CRP clients filter).
var metrics = struct {
	redirects *obs.Counter // localized answers from the neighbor set
	fallbacks *obs.Counter // sparse-coverage fallback to the default set
	globals   *obs.Counter // global-name answers (never localized)
}{
	redirects: obs.Default().Counter("cdn.redirects.localized"),
	fallbacks: obs.Default().Counter("cdn.redirects.fallback"),
	globals:   obs.Default().Counter("cdn.redirects.global"),
}

// Hash domains for the CDN's own noise sources.
const (
	domainServes uint64 = 0x6364_0001 + iota
	domainLoad
	domainOverload
	domainMonitor
	domainSlowLoad
	domainSpread
	domainSubset
)

// slowLoadBucket is the timescale of capacity/traffic shifts: replica
// preference drifts over hours, so redirection histories go stale — the
// effect behind the paper's Fig. 8 probe-interval study.
const slowLoadBucket = 4 * time.Hour

// Mapping-system constants. Every CDN in the repo runs these values; the
// per-CDN differences the experiments need are the Config fields.
const (
	// AnswerTTL is the DNS TTL of answers (Akamai uses 20 s).
	AnswerTTL = 20 * time.Second
	// MappingEpoch is how often the mapping system re-evaluates its answers.
	MappingEpoch = 30 * time.Second
	// neighborSetSize bounds how many nearby replicas the mapping system
	// considers per LDNS.
	neighborSetSize = 30
	// answerCount is how many A records each response carries (Akamai
	// returns two).
	answerCount = 2
	// fallbackThresholdMs: if even the best nearby replica measures worse
	// than this, the CDN answers with its global default servers instead,
	// modelling Akamai's distant "owned-domain" fallback answers that the
	// paper suggests filtering out.
	fallbackThresholdMs = 140.0
)

// servedNames are the CDN-accelerated names the paper drove CRP with (the
// Yahoo image server and the Fox News site, both Akamai customers). Each
// replica serves a random ~70% subset of names, so different names expose
// overlapping but distinct server sets.
var servedNames = []string{"us.i1.yimg.cdn.sim.", "www.foxnews.cdn.sim."}

// Config parameterizes the CDN.
type Config struct {
	// Topo is the underlying topology; its replica hosts become this CDN's
	// replica servers. Required.
	Topo *netsim.Topology
	// GlobalNames are CDN names answered exclusively from the global
	// default server set regardless of the querying LDNS — like the
	// Akamai-owned-domain answers the paper's §VI recommends filtering.
	// They carry no positioning information and exist so that adaptive
	// name selection (crp.NameSelector) has something to reject.
	GlobalNames []string

	// Namespace names this CDN when several run over one topology (see
	// Fleet). It doubles as the seed-domain salt, so two CDNs with
	// otherwise identical configs produce independent deployments, mapping
	// noise and load processes. Empty is the legacy single-CDN identity and
	// changes nothing.
	Namespace string
	// ReplicaFraction deploys this CDN on a deterministic subset of the
	// topology's replica hosts: each host joins with this probability
	// (seeded by the CDN's salted seed, so different CDNs draw different
	// subsets). 0 or 1 deploys on every host — the legacy behavior. This is
	// the replica-density axis of the fusion evaluation: a sparse CDN has
	// systematically coarser redirection signal (Hillmann-style mirror
	// placement differences).
	ReplicaFraction float64
	// LoadScale multiplies the mapping system's modeled per-replica load
	// (jitter, drift and overload shifts), so CDNs can differ in how noisy
	// their redirection policy is. 0 means 1 (unscaled).
	LoadScale float64
}

// ErrUnknownName is returned for lookups of names the CDN does not serve.
var ErrUnknownName = errors.New("cdn: name not served by this CDN")

// Network is a simulated CDN. It is safe for concurrent use.
type Network struct {
	cfg       Config
	topo      *netsim.Topology
	seed      uint64
	loadScale float64

	names    []string
	nameIdx  map[string]int
	isGlobal map[string]bool
	replicas []netsim.HostID
	// serves[nameIdx][replica index in replicas] reports whether that
	// replica serves the name.
	serves [][]bool
	// fallback[nameIdx] is the global default replica set for the name.
	fallback [][]netsim.HostID

	mu        sync.Mutex
	neighbors map[netsim.HostID][]netsim.HostID

	// mapHook holds the optional MapHook (wrapped in mapHookBox) consulted
	// by Redirect. See SetMapHook.
	mapHook atomic.Value
}

// MapHook lets a fault plane interpose on the mapping system's epoch
// bookkeeping. Redirect calls it with the querying LDNS, the query's
// virtual time, the configured mapping-epoch length and the epoch the
// query falls in; the hook returns the epoch identity and the measurement
// time the mapping computation should use instead. Returning the inputs
// unchanged is a no-op. Two fault shapes fall out naturally:
//
//   - a frozen map (stale answers across the TTL window): return a pinned
//     earlier epoch and that epoch's start time, so ranking reuses the
//     monitoring measurements and load state of the stale instant;
//   - an abrupt re-mapping event (YouLighter-style): return a different
//     epoch identity with the current measurement time, so every draw that
//     keys on the epoch changes at once.
//
// Hooks must be deterministic and safe for concurrent use.
type MapHook func(ldns netsim.HostID, at, epochLen time.Duration, epoch uint64) (uint64, time.Duration)

type mapHookBox struct{ h MapHook }

// SetMapHook installs (or, with nil, removes) the mapping hook.
func (n *Network) SetMapHook(h MapHook) {
	n.mapHook.Store(mapHookBox{h: h})
}

func (n *Network) mapHookOf() MapHook {
	if b, ok := n.mapHook.Load().(mapHookBox); ok {
		return b.h
	}
	return nil
}

// New builds a CDN over the given topology.
func New(cfg Config) (*Network, error) {
	if cfg.Topo == nil {
		return nil, errors.New("cdn: Config.Topo is required")
	}
	if cfg.ReplicaFraction < 0 || cfg.ReplicaFraction > 1 {
		return nil, fmt.Errorf("cdn: ReplicaFraction %v outside [0,1]", cfg.ReplicaFraction)
	}
	if cfg.LoadScale < 0 {
		return nil, fmt.Errorf("cdn: negative LoadScale %v", cfg.LoadScale)
	}

	// The hash-noise seed: the topology seed, salted per CDN so independent
	// networks over one topology draw independent deployments, measurements
	// and load processes. An unsalted config (the single-CDN legacy shape)
	// keeps the bare topology seed, bit for bit.
	seed := uint64(cfg.Topo.Seed())
	if cfg.Namespace != "" {
		seed ^= fnv64str(cfg.Namespace)
	}

	replicas := cfg.Topo.Replicas()
	if f := cfg.ReplicaFraction; f > 0 && f < 1 {
		kept := make([]netsim.HostID, 0, len(replicas))
		for _, id := range replicas {
			if netsim.UnitAt(seed, domainSubset, uint64(id)) < f {
				kept = append(kept, id)
			}
		}
		replicas = kept
	}
	if len(replicas) == 0 {
		return nil, errors.New("cdn: topology has no replica hosts (after ReplicaFraction subsetting)")
	}

	n := &Network{
		cfg:       cfg,
		topo:      cfg.Topo,
		seed:      seed,
		loadScale: cfg.LoadScale,
		names:     append([]string(nil), servedNames...),
		nameIdx:   make(map[string]int, len(servedNames)+len(cfg.GlobalNames)),
		isGlobal:  make(map[string]bool, len(cfg.GlobalNames)),
		replicas:  replicas,
		neighbors: make(map[netsim.HostID][]netsim.HostID),
	}
	if n.loadScale == 0 {
		n.loadScale = 1
	}
	for _, g := range cfg.GlobalNames {
		n.names = append(n.names, g)
		n.isGlobal[g] = true
	}
	for i, name := range n.names {
		if _, dup := n.nameIdx[name]; dup {
			return nil, fmt.Errorf("cdn: duplicate name %q", name)
		}
		n.nameIdx[name] = i
	}

	// Assign each replica the subset of names it serves (~70% per name,
	// deterministic in the topology seed). Every name keeps at least one
	// server per metro where possible by construction of the 70% draw over
	// a large deployment; we additionally force the fallback servers in.
	n.serves = make([][]bool, len(n.names))
	for ni := range n.names {
		row := make([]bool, len(replicas))
		for ri, id := range replicas {
			row[ri] = netsim.UnitAt(n.seed, domainServes, uint64(ni), uint64(id)) < 0.7
		}
		n.serves[ni] = row
	}

	// Fallback servers: the three replicas with the lowest total distance to
	// all candidate servers — a proxy for "well-connected core deployment".
	n.fallback = make([][]netsim.HostID, len(n.names))
	core := n.coreReplicas(3)
	for ni := range n.names {
		n.fallback[ni] = core
		for _, id := range core {
			n.serves[ni][n.replicaIndex(id)] = true
		}
	}
	return n, nil
}

// coreReplicas picks k replicas minimizing summed base RTT to a sample of
// clients: the CDN's "origin-adjacent" deployment used for fallback answers.
func (n *Network) coreReplicas(k int) []netsim.HostID {
	clients := n.topo.Clients()
	if len(clients) > 50 {
		clients = clients[:50]
	}
	if len(clients) == 0 {
		clients = n.replicas[:min(5, len(n.replicas))]
	}
	type scored struct {
		id  netsim.HostID
		sum float64
	}
	all := make([]scored, 0, len(n.replicas))
	for _, r := range n.replicas {
		s := 0.0
		for _, c := range clients {
			s += n.topo.BaseRTTMs(r, c)
		}
		all = append(all, scored{r, s})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].sum < all[j].sum })
	if k > len(all) {
		k = len(all)
	}
	out := make([]netsim.HostID, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].id
	}
	return out
}

func (n *Network) replicaIndex(id netsim.HostID) int {
	for i, r := range n.replicas {
		if r == id {
			return i
		}
	}
	return -1
}

// Namespace returns the CDN's namespace ("" for the legacy single-CDN
// identity).
func (n *Network) Namespace() string { return n.cfg.Namespace }

// fnv64str is FNV-1a over a string, the Namespace-derived seed salt.
func fnv64str(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Names returns the CDN-accelerated names.
func (n *Network) Names() []string {
	return append([]string(nil), n.names...)
}

// TTL returns the DNS TTL the CDN attaches to answers.
func (n *Network) TTL() time.Duration { return AnswerTTL }

// Replicas returns the CDN's replica server host IDs.
func (n *Network) Replicas() []netsim.HostID {
	return append([]netsim.HostID(nil), n.replicas...)
}

// Serves reports whether replica id serves the given name.
func (n *Network) Serves(name string, id netsim.HostID) bool {
	ni, ok := n.nameIdx[name]
	if !ok {
		return false
	}
	ri := n.replicaIndex(id)
	return ri >= 0 && n.serves[ni][ri]
}

// IsFallback reports whether id belongs to the global default server set of
// any name — the distant "owned-domain" answers a CRP client may filter.
func (n *Network) IsFallback(id netsim.HostID) bool {
	for _, set := range n.fallback {
		for _, f := range set {
			if f == id {
				return true
			}
		}
	}
	return false
}

// neighborSet returns (computing and caching on first use) the replicas the
// mapping system considers for an LDNS: the neighborSetSize lowest base-RTT
// replicas.
func (n *Network) neighborSet(ldns netsim.HostID) []netsim.HostID {
	n.mu.Lock()
	defer n.mu.Unlock()
	if set, ok := n.neighbors[ldns]; ok {
		return set
	}
	type scored struct {
		id  netsim.HostID
		rtt float64
	}
	all := make([]scored, len(n.replicas))
	for i, r := range n.replicas {
		all[i] = scored{r, n.topo.BaseRTTMs(ldns, r)}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].rtt < all[j].rtt })
	k := neighborSetSize
	if k > len(all) {
		k = len(all)
	}
	set := make([]netsim.HostID, k)
	for i := 0; i < k; i++ {
		set[i] = all[i].id
	}
	n.neighbors[ldns] = set
	return set
}

// loadMs models per-replica load as seen by the mapping system during one
// epoch: a fast per-epoch jitter, a slow multi-hour drift in effective
// capacity, and occasional overload events that push traffic away from an
// otherwise-closest replica.
func (n *Network) loadMs(replica netsim.HostID, epoch uint64, at time.Duration) float64 {
	base := netsim.UnitAt(n.seed, domainLoad, uint64(replica), epoch) * 8
	base += netsim.UnitAt(n.seed, domainSlowLoad, uint64(replica), uint64(at/slowLoadBucket)) * 14
	if netsim.UnitAt(n.seed, domainOverload, uint64(replica), epoch) < 0.05 {
		base += 30 + netsim.UnitAt(n.seed, domainOverload+1, uint64(replica), epoch)*50
	}
	return base * n.loadScale
}

// Redirect returns the replica servers (answerCount of them, best first) the
// CDN's mapping system directs ldns to for name at virtual time at.
// The answer is deterministic within a mapping epoch.
func (n *Network) Redirect(name string, ldns netsim.HostID, at time.Duration) ([]netsim.HostID, error) {
	ni, ok := n.nameIdx[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownName, name)
	}
	if n.topo.Host(ldns) == nil {
		return nil, fmt.Errorf("cdn: unknown LDNS host %d", ldns)
	}
	// Global names are answered from the default server set for everyone.
	if n.isGlobal[name] {
		metrics.globals.Inc()
		out := n.fallback[ni]
		k := min(answerCount, len(out))
		return append([]netsim.HostID(nil), out[:k]...), nil
	}

	epoch := uint64(at / MappingEpoch)
	epochStart := time.Duration(epoch) * MappingEpoch
	if hook := n.mapHookOf(); hook != nil {
		epoch, epochStart = hook(ldns, at, MappingEpoch, epoch)
	}

	type scored struct {
		id    netsim.HostID
		score float64
		rtt   float64
	}
	var ranked []scored
	for _, r := range n.neighborSet(ldns) {
		ri := n.replicaIndex(r)
		if !n.serves[ni][ri] {
			continue
		}
		rtt := n.topo.MeasureRTTMs(ldns, r, epochStart, netsim.Mix(domainMonitor, epoch))
		ranked = append(ranked, scored{r, rtt + n.loadMs(r, epoch, epochStart), rtt})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score < ranked[j].score
		}
		return ranked[i].id < ranked[j].id
	})

	// Sparse-coverage fallback: if even the best answer is far, hand out the
	// global default servers, as Akamai does for poorly-covered regions.
	if len(ranked) == 0 || ranked[0].rtt > fallbackThresholdMs {
		metrics.fallbacks.Inc()
		out := n.fallback[ni]
		k := min(answerCount, len(out))
		return append([]netsim.HostID(nil), out[:k]...), nil
	}

	// Load spreading: rather than always answering with the strict top
	// ranks, each answer slot samples geometrically down the ranking
	// (deterministically per epoch). Real CDNs spread request load this
	// way; for CRP it means nearby-but-not-identical vantage points share
	// some low-frequency replicas, giving cosine similarity its full
	// dynamic range rather than a near/far binary.
	metrics.redirects.Inc()
	k := min(answerCount, len(ranked))
	out := make([]netsim.HostID, 0, k)
	used := make(map[int]bool, k)
	for slot := 0; len(out) < k; slot++ {
		idx := 0
		for {
			if used[idx] {
				idx++
				continue
			}
			if idx+1 >= len(ranked) {
				break
			}
			// Advance with probability ~35%, capped so the tail of the
			// neighbor set is never selected.
			if netsim.UnitAt(n.seed, domainSpread, uint64(ldns), epoch, uint64(slot), uint64(idx)) >= 0.35 {
				break
			}
			if idx >= 5 {
				break
			}
			idx++
		}
		if idx >= len(ranked) {
			// The walk skipped a used run at the tail and stepped off the
			// end; fall back to the highest-ranked unused replica. (An
			// unused one always exists: k never exceeds len(ranked).)
			idx = len(ranked) - 1
			for used[idx] {
				idx--
			}
		}
		used[idx] = true
		out = append(out, ranked[idx].id)
	}
	return out, nil
}
