package crp

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The sharded tracker store is the Service's storage core. The paper frames
// CRP as a shared positioning service under continuous probe traffic
// (§III-B); with a single tracker map and a single compiled all-nodes
// snapshot, every Observe invalidates the snapshot *globally* and the next
// query repays an O(N) recompile — under steady ingestion the snapshot hit
// ratio collapses to zero. Here NodeIDs hash to S shards (a power of two,
// ~4× GOMAXPROCS), each shard owning its tracker submap, its own lock, a
// version counter and a compiled sub-snapshot of nodeVecs. A mutation
// dirties only its shard, so snapshot assembly recompiles only the dirty
// shards and stitches the immutable per-shard slices back into the global
// candidate set: the steady-state cost of one mutation drops from O(N) to
// O(N/S) — and usually to O(N/S copy + 1 recompile), because a shard whose
// membership did not change patches its previous sub-snapshot in place
// instead of re-collecting and re-sorting it.

// StoreConfig tunes the Service's sharded tracker store. It exists for
// benchmarks and tests that need to pin a specific store shape — production
// callers should use NewService, which picks defaults from the host.
type StoreConfig struct {
	// Shards is the shard count; it is rounded up to a power of two.
	// Zero or negative picks the default (~4× GOMAXPROCS, at least 256).
	Shards int
}

// defaultShardCount returns the default store width: the next power of two
// of 4× GOMAXPROCS, clamped to [256, 1024]. The large floor matters even on
// small hosts — shards bound the *invalidation scope* of a mutation, not
// just lock contention. A rebuild patches every shard a batch of writes
// touched, each patch copying N/S entries, so with B writes spread across
// shards the copied volume is ≈ S·(1-(1-1/S)^B)·N/S entries — a quantity
// that *shrinks* as S grows, along with the allocation garbage those copies
// feed the collector. Measured at PR 3 (DESIGN.md "Store"): at 50k nodes under
// a 1.5k/s observe stream, going from 64 to 256 shards nearly halves query
// p99 on a single-core host. Per-shard fixed overhead
// (two small maps, a gauge, three words of sync state) is a few hundred
// bytes, so even a store holding a handful of nodes pays nothing noticeable
// for an oversized shard table.
func defaultShardCount() int {
	const floor, ceil = 256, 1024
	n := 4 * runtime.GOMAXPROCS(0)
	if n < floor {
		n = floor
	}
	if n > ceil {
		n = ceil
	}
	return shardCount(n)
}

// shardCount rounds n up to a power of two. It applies no clamp, so an
// explicit StoreConfig{Shards: 1} really gets one shard.
func shardCount(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// entryMeta is the replication metadata of one node entry: which daemon's
// mutation produced the entry's current probe window (origin), how many
// mutations the entry has seen (version, monotonic per node), and whether
// the entry is a deletion tombstone awaiting garbage collection. Tombstones
// keep a deletion time so the GC horizon can reclaim them once every peer
// has had a chance to learn about the forget.
type entryMeta struct {
	origin    string
	version   uint64
	deleted   bool
	deletedAt time.Time
}

// meta converts the internal record to the exported NodeMeta form.
func (e entryMeta) meta(node NodeID) NodeMeta {
	return NodeMeta{Node: node, Origin: e.origin, Version: e.version, Deleted: e.deleted}
}

// store is the sharded tracker map plus the stitched-snapshot cache.
type store struct {
	shards []storeShard
	mask   uint32
	opts   []TrackerOption

	// Replication identity, set once before traffic by the peering layer
	// (see Service.SetOrigin/SetClock/SetMutationHook). origin stamps local
	// mutations; now times tombstones; onMutate, when non-nil, is invoked
	// after every local Observe/Forget so a gossip layer can queue the node
	// for rumor propagation. Remote delta application (applyDelta) does not
	// fire the hook — the peering layer forwards those itself.
	origin   string
	now      func() time.Time
	onMutate func(NodeID)

	// version counts completed mutations store-wide; it is bumped strictly
	// after the mutation (tracker update and shard bookkeeping) lands, so a
	// stitched snapshot assembled concurrently with a mutation is tagged
	// with the pre-mutation version and reassembled on the next query.
	version atomic.Uint64

	// Stitched snapshot cache: the per-shard slices as of stitchVersion.
	// Assembly is O(S) slice-header copies when no shard is dirty.
	stitchMu      sync.Mutex
	stitched      storeSnap
	stitchVersion uint64
	stitchValid   bool
}

// storeShard owns one partition of the node space.
type storeShard struct {
	mu       sync.RWMutex
	trackers map[NodeID]*Tracker
	// dirty holds nodes whose tracker changed since the last sub-snapshot
	// build; structural records membership changes (add/forget), which force
	// a full re-collect. Both are guarded by mu. A node's dirty mark is set
	// strictly after its tracker mutation lands, so a rebuild that consumes
	// the mark always compiles the post-mutation vector.
	dirty      map[NodeID]struct{}
	structural bool

	// meta carries the replication metadata of every entry this shard has
	// ever learned about, including tombstones for forgotten nodes (which
	// have no tracker). Guarded by mu. Invariant: every key of trackers has
	// a meta record with deleted == false; deleted records have no tracker.
	meta map[NodeID]entryMeta

	// version counts completed mutations to this shard, bumped after the
	// mutation lands (same publication rule as store.version).
	version atomic.Uint64

	// Compiled sub-snapshot: nodeVecs sorted by NodeID, immutable once
	// published. snapMu single-flights rebuilds — concurrent queries that
	// find the shard dirty serialize here, and all but the first return the
	// freshly built slice without duplicating the work.
	snapMu      sync.Mutex
	snapVecs    []nodeVec
	snapVersion uint64

	// Cached anti-entropy digest, keyed on the shard version like the
	// sub-snapshot above. Without the cache every gossip digest exchange
	// re-collects and re-sorts the shard's full metadata set — per peer, per
	// tick — which at aggregate scale dominates the gossip loop. The cache
	// makes the steady state (no mutations between ticks) one atomic load.
	// Every metadata mutation must therefore bump the shard version —
	// including tombstone GC, which changes the digest's input set.
	digestMu      sync.Mutex
	digestVal     uint64
	digestVersion uint64
	digestValid   bool

	nodes *obs.Gauge // crp.service.shard.NNN.nodes
}

// storeSnap is a stitched point-in-time view of the store's compiled
// candidate vectors: one immutable sorted slice per shard. Query kernels
// consume it part-wise; total is the candidate count across all parts.
type storeSnap struct {
	parts [][]nodeVec
	total int
}

// snapOf wraps an explicit candidate list as a one-part snap, so the query
// kernels take one input shape.
func snapOf(cands []nodeVec) storeSnap {
	return storeSnap{parts: [][]nodeVec{cands}, total: len(cands)}
}

// flatten concatenates the parts into one slice, for consumers that need a
// single contiguous candidate set (the clustering path, which sorts and
// indexes it anyway). The result is freshly allocated and safe to reorder.
func (s storeSnap) flatten() []nodeVec {
	out := make([]nodeVec, 0, s.total)
	for _, p := range s.parts {
		out = append(out, p...)
	}
	return out
}

// newStore builds an empty store with cfg.Shards shards (rounded up to a
// power of two) applying opts to every tracker it creates.
func newStore(cfg StoreConfig, opts []TrackerOption) *store {
	n := cfg.Shards
	if n <= 0 {
		n = defaultShardCount()
	}
	n = shardCount(n)
	st := &store{
		shards: make([]storeShard, n),
		mask:   uint32(n - 1),
		opts:   opts,
		now:    time.Now,
	}
	for i := range st.shards {
		st.shards[i].trackers = make(map[NodeID]*Tracker)
		st.shards[i].dirty = make(map[NodeID]struct{})
		st.shards[i].meta = make(map[NodeID]entryMeta)
		st.shards[i].nodes = obs.Default().Gauge(fmt.Sprintf("crp.service.shard.%03d.nodes", i))
	}
	svcMetrics.shardWidth.Set(int64(n))
	return st
}

// shardIndex routes a node to its shard index by FNV-1a over the ID bytes.
func (st *store) shardIndex(id NodeID) int {
	return int(fnvKey(string(id)) & st.mask)
}

// shardFor routes a node to its shard.
func (st *store) shardFor(id NodeID) *storeShard {
	return &st.shards[st.shardIndex(id)]
}

// observe records one probe for node, creating its tracker on first sight
// (or resurrecting it over a tombstone), and publishes the mutation: tracker
// update, then dirty mark and metadata stamp, then the version bumps. Only
// node's shard is invalidated. The metadata stamp happens under the shard
// lock together with the dirty mark, so concurrent observes of the same node
// each advance the entry version by exactly one and the final version always
// describes the final probe window.
func (st *store) observe(node NodeID, tr func(*Tracker)) {
	sh := st.shardFor(node)
	sh.mu.Lock()
	t, ok := sh.trackers[node]
	if !ok {
		t = NewTracker(st.opts...)
		sh.trackers[node] = t
		sh.structural = true
		sh.nodes.Inc()
	}
	sh.mu.Unlock()

	tr(t)

	sh.mu.Lock()
	sh.dirty[node] = struct{}{}
	m := sh.meta[node]
	m.origin, m.version = st.origin, m.version+1
	m.deleted, m.deletedAt = false, time.Time{}
	sh.meta[node] = m
	sh.mu.Unlock()
	sh.version.Add(1)
	st.version.Add(1)
	if st.onMutate != nil {
		st.onMutate(node)
	}
}

// mutate runs fn against node's existing tracker and, when fn reports it
// changed something, publishes the mutation exactly like observe: dirty mark
// and metadata stamp under the shard lock, then the version bumps and the
// mutation hook. Unlike observe it never creates a tracker — a mutation of
// an unknown node is a no-op — and a no-change fn leaves every version
// untouched, so idempotent re-application (a replayed namespaced forget)
// does not churn snapshots or gossip. Returns whether a mutation was
// published.
func (st *store) mutate(node NodeID, fn func(*Tracker) bool) bool {
	sh := st.shardFor(node)
	sh.mu.RLock()
	t, ok := sh.trackers[node]
	sh.mu.RUnlock()
	if !ok {
		return false
	}

	if !fn(t) {
		return false
	}

	sh.mu.Lock()
	sh.dirty[node] = struct{}{}
	m := sh.meta[node]
	m.origin, m.version = st.origin, m.version+1
	m.deleted, m.deletedAt = false, time.Time{}
	sh.meta[node] = m
	sh.mu.Unlock()
	sh.version.Add(1)
	st.version.Add(1)
	if st.onMutate != nil {
		st.onMutate(node)
	}
	return true
}

// forget removes a node, leaving a deletion tombstone so the forget can
// propagate to gossip peers before the GC horizon reclaims it. Like the
// pre-sharding design, the versions bump even when the node was unknown, so
// forget is always a snapshot barrier; the tombstone is written either way,
// making a forget-by-name effective mesh-wide even when issued on a daemon
// that never observed the node.
func (st *store) forget(node NodeID) {
	sh := st.shardFor(node)
	sh.mu.Lock()
	if _, ok := sh.trackers[node]; ok {
		delete(sh.trackers, node)
		sh.structural = true
		sh.nodes.Dec()
	}
	delete(sh.dirty, node)
	m := sh.meta[node]
	m.origin, m.version = st.origin, m.version+1
	m.deleted, m.deletedAt = true, st.now()
	sh.meta[node] = m
	sh.mu.Unlock()
	sh.version.Add(1)
	st.version.Add(1)
	if st.onMutate != nil {
		st.onMutate(node)
	}
}

// get returns node's tracker.
func (st *store) get(node NodeID) (*Tracker, bool) {
	sh := st.shardFor(node)
	sh.mu.RLock()
	t, ok := sh.trackers[node]
	sh.mu.RUnlock()
	return t, ok
}

// len returns the number of known nodes.
func (st *store) len() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		n += len(sh.trackers)
		sh.mu.RUnlock()
	}
	return n
}

// nodeIDs returns every known node ID in ascending order.
func (st *store) nodeIDs() []NodeID {
	out := make([]NodeID, 0, st.len())
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for id := range sh.trackers {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// snapshot assembles the stitched candidate set: every shard's compiled
// sub-snapshot, rebuilt only where a mutation landed since the last
// assembly. The returned parts (and the vectors inside them) are immutable.
func (st *store) snapshot() storeSnap {
	v := st.version.Load()
	st.stitchMu.Lock()
	defer st.stitchMu.Unlock()
	if st.stitchValid && st.stitchVersion == v {
		svcMetrics.snapshotHits.Inc()
		return st.stitched
	}
	svcMetrics.snapshotRebuilds.Inc()
	parts := make([][]nodeVec, len(st.shards))
	total := 0
	for i := range st.shards {
		parts[i] = st.shards[i].vecs()
		total += len(parts[i])
	}
	st.stitched = storeSnap{parts: parts, total: total}
	st.stitchVersion, st.stitchValid = v, true
	return st.stitched
}

// vecs returns the shard's compiled sub-snapshot, rebuilding it if a
// mutation landed since the last build. When the shard's membership is
// unchanged (no adds or forgets), the rebuild patches only the dirty nodes'
// vectors into a copy of the previous slice — no re-collect, no re-sort.
func (sh *storeShard) vecs() []nodeVec {
	v := sh.version.Load()
	sh.snapMu.Lock()
	defer sh.snapMu.Unlock()
	if sh.snapVecs != nil && sh.snapVersion == v {
		return sh.snapVecs
	}
	svcMetrics.shardRebuilds.Inc()

	// Consume the dirty set under the shard lock. Every consumed mark was
	// published after its tracker mutation, so compiling below (after the
	// version load above) observes the mutated state; marks published later
	// stay for the next rebuild, which the post-mutation version bump
	// guarantees will happen.
	sh.mu.Lock()
	structural := sh.structural || sh.snapVecs == nil
	sh.structural = false
	var dirtyTrackers []nodeVec // id + tracker vec to patch in
	if structural {
		clear(sh.dirty)
	} else {
		dirtyTrackers = make([]nodeVec, 0, len(sh.dirty))
		for id := range sh.dirty {
			// Membership didn't change, so every dirty node is still present.
			dirtyTrackers = append(dirtyTrackers, nodeVec{id: id})
		}
		clear(sh.dirty)
	}
	var entries []nodeVec
	var trackers []*Tracker
	if structural {
		entries = make([]nodeVec, 0, len(sh.trackers))
		trackers = make([]*Tracker, 0, len(sh.trackers))
		for id, t := range sh.trackers {
			entries = append(entries, nodeVec{id: id})
			trackers = append(trackers, t)
		}
	} else {
		trackers = make([]*Tracker, len(dirtyTrackers))
		for i := range dirtyTrackers {
			trackers[i] = sh.trackers[dirtyTrackers[i].id]
		}
	}
	sh.mu.Unlock()

	// Compile outside the shard lock: vec() is usually a per-tracker cache
	// hit, and a rebuild must never block the shard's writers.
	if structural {
		sort.Sort(&vecSorter{entries, trackers})
		for i := range entries {
			entries[i].vec = trackers[i].vec()
		}
		sh.snapVecs, sh.snapVersion = entries, v
		return entries
	}

	patched := make([]nodeVec, len(sh.snapVecs))
	copy(patched, sh.snapVecs)
	for i := range dirtyTrackers {
		id := dirtyTrackers[i].id
		if trackers[i] == nil {
			// A forget raced in after the structural check; it bumped the
			// version after setting structural, so the next rebuild
			// re-collects. Skip the vanished node here.
			continue
		}
		pos := sort.Search(len(patched), func(j int) bool { return patched[j].id >= id })
		if pos >= len(patched) || patched[pos].id != id {
			continue // same race, add side: the pending structural rebuild will pick it up
		}
		patched[pos].vec = trackers[i].vec()
	}
	sh.snapVecs, sh.snapVersion = patched, v
	return patched
}

// applyDelta installs a remotely-produced node entry if it supersedes the
// local one under the last-writer-wins rule (NodeMeta.Supersedes). The probe
// window is replaced wholesale — deltas carry the origin's full window, so
// replication never interleaves probe histories and every replica of an entry
// version is byte-identical. Returns false when the delta is stale or
// idempotent (local meta equal or newer). Unlike observe/forget this does NOT
// fire the mutation hook: the peering layer decides itself whether to forward
// an applied delta (rumor TTL), and firing the hook here would re-stamp the
// entry as a local mutation.
func (st *store) applyDelta(d NodeDelta) bool {
	// Build the replacement tracker outside the shard lock; replaying the
	// probe window touches no shared state.
	var t *Tracker
	if !d.Deleted {
		t = NewTracker(st.opts...)
		for _, p := range d.Probes {
			t.Observe(p.At, p.Replicas...)
		}
	}

	sh := st.shardFor(d.Node)
	sh.mu.Lock()
	cur, known := sh.meta[d.Node]
	if known && !d.NodeMeta.Supersedes(cur.meta(d.Node)) {
		sh.mu.Unlock()
		return false
	}
	_, hadTracker := sh.trackers[d.Node]
	if d.Deleted {
		if hadTracker {
			delete(sh.trackers, d.Node)
			sh.structural = true
			sh.nodes.Dec()
		}
		delete(sh.dirty, d.Node)
		sh.meta[d.Node] = entryMeta{
			origin: d.Origin, version: d.Version,
			deleted: true, deletedAt: d.DeletedAt,
		}
	} else {
		sh.trackers[d.Node] = t
		if !hadTracker {
			sh.structural = true
			sh.nodes.Inc()
		} else {
			// Wholesale replacement of an existing tracker: a dirty mark
			// suffices, because the patch rebuild re-reads sh.trackers under
			// the lock and so compiles the new tracker's vector.
			sh.dirty[d.Node] = struct{}{}
		}
		sh.meta[d.Node] = entryMeta{origin: d.Origin, version: d.Version}
	}
	sh.mu.Unlock()
	sh.version.Add(1)
	st.version.Add(1)
	return true
}

// exportDelta packages node's full current state — replication metadata plus
// the complete probe window (empty for tombstones) — for transmission to a
// peer. ok is false when the store has never heard of the node.
func (st *store) exportDelta(node NodeID) (NodeDelta, bool) {
	sh := st.shardFor(node)
	sh.mu.RLock()
	m, known := sh.meta[node]
	t := sh.trackers[node]
	sh.mu.RUnlock()
	if !known {
		return NodeDelta{}, false
	}
	d := NodeDelta{NodeMeta: m.meta(node), DeletedAt: m.deletedAt}
	if t != nil {
		d.Probes = t.Probes()
	}
	return d, true
}

// shardMetas returns the replication metadata of every entry (live and
// tombstoned) in shard i, sorted by node ID. The peering layer ships these
// flat lists when two peers' shard digests disagree.
func (st *store) shardMetas(i int) []NodeMeta {
	sh := &st.shards[i]
	sh.mu.RLock()
	out := make([]NodeMeta, 0, len(sh.meta))
	for id, m := range sh.meta {
		out = append(out, m.meta(id))
	}
	sh.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Node < out[b].Node })
	return out
}

// shardDigest folds shard i's sorted metadata into one FNV-1a word. Two
// shards with identical (node, origin, version, deleted) sets — the full
// replicated state, since the probe window is a function of (origin, version)
// — produce identical digests, so digest comparison is the cheap first phase
// of anti-entropy: only shards whose words differ exchange metadata.
//
// The digest is cached against the shard version (same publication rule as
// the compiled sub-snapshot: the version is loaded before the fold, and
// mutations bump it only after they land, so a cached word always describes
// a state at least as new as its version tag).
func (st *store) shardDigest(i int) uint64 {
	sh := &st.shards[i]
	v := sh.version.Load()
	sh.digestMu.Lock()
	defer sh.digestMu.Unlock()
	if sh.digestValid && sh.digestVersion == v {
		return sh.digestVal
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	metas := st.shardMetas(i)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for _, m := range metas {
		for j := 0; j < len(m.Node); j++ {
			mix(m.Node[j])
		}
		mix(0)
		for j := 0; j < len(m.Origin); j++ {
			mix(m.Origin[j])
		}
		mix(0)
		for s := 0; s < 64; s += 8 {
			mix(byte(m.Version >> s))
		}
		if m.Deleted {
			mix(1)
		} else {
			mix(0)
		}
	}
	sh.digestVal, sh.digestVersion, sh.digestValid = h, v, true
	return h
}

// digests returns every shard's digest, indexed by shard.
func (st *store) digests() []uint64 {
	out := make([]uint64, len(st.shards))
	for i := range st.shards {
		out[i] = st.shardDigest(i)
	}
	return out
}

// gcTombstones deletes tombstones whose deletion time is before the horizon
// and returns how many it reclaimed. Although reclamation touches no tracker
// and no compiled vector, it DOES change the metadata set the shard digest
// folds over, so every shard that reclaimed something publishes like any
// other mutation: delete under the lock, then bump the shard and store
// versions. Without the bump the cached digest keeps describing the
// pre-GC set, and an anti-entropy round against a peer that GC'd on a
// different schedule would compare a stale word — agreeing shards would
// look different (wasted metadata exchanges) and, worse, differing shards
// could look identical and never re-sync. Shards that reclaimed nothing
// publish nothing, so the routine stays free for the common empty tick. A
// peer that somehow missed the deletion for longer than the GC horizon can
// briefly resurrect the entry through anti-entropy — the horizon is the
// declared replication deadline, and DESIGN.md "Gossip" documents the trade.
func (st *store) gcTombstones(horizon time.Time) int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		reclaimed := 0
		for id, m := range sh.meta {
			if m.deleted && m.deletedAt.Before(horizon) {
				delete(sh.meta, id)
				reclaimed++
			}
		}
		sh.mu.Unlock()
		if reclaimed > 0 {
			sh.version.Add(1)
			st.version.Add(1)
			n += reclaimed
		}
	}
	return n
}

// vecSorter sorts a nodeVec slice by ID while keeping a parallel tracker
// slice aligned, so the compile loop after sorting indexes both coherently.
type vecSorter struct {
	entries  []nodeVec
	trackers []*Tracker
}

func (s *vecSorter) Len() int           { return len(s.entries) }
func (s *vecSorter) Less(i, j int) bool { return s.entries[i].id < s.entries[j].id }
func (s *vecSorter) Swap(i, j int) {
	s.entries[i], s.entries[j] = s.entries[j], s.entries[i]
	s.trackers[i], s.trackers[j] = s.trackers[j], s.trackers[i]
}
