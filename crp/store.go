package crp

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// The sharded tracker store is the Service's storage core. The paper frames
// CRP as a shared positioning service under continuous probe traffic
// (§III-B), so the store is built around what one write costs: NodeIDs hash
// to S shards (a power of two, ~4× GOMAXPROCS), each shard owning one map of
// node records, its own lock, a version counter and a compiled sub-snapshot
// of nodeVecs. A write dirties only its shard, so snapshot assembly
// recompiles only the dirty shards and stitches the immutable per-shard
// slices back into the global candidate set: one write costs O(N/S) — and
// usually O(N/S copy + 1 recompile), because a shard whose membership did
// not change patches its previous sub-snapshot instead of re-collecting and
// re-sorting it.
//
// Beside its vectors each compiled sub-snapshot carries a replica → node
// posting index (postings), built from the same vectors and published with
// them, so an all-nodes query reads vectors and postings of one version and
// scores only the nodes that share a replica with its client (select.go,
// topAll).
//
// A node has exactly one record (nodeEntry): its replication stamp and its
// tracker. A record, once written, is never removed — the paper's service
// observes and answers, it never withdraws a node. Every change to a record
// — observe or delta apply — goes through one step, publish, and everything
// that lists nodes reads the same map through one sorted walk, records.

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
// (one small map, a gauge, three words of sync state) is a few hundred
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

// entryMeta is the replication stamp of one node record: which daemon's
// write produced the record's current probe window (origin) and how many
// writes the record has seen (version, monotonic per node).
type entryMeta struct {
	origin  string
	version uint64
}

// nodeEntry is the one record a shard keeps per node, guarded by the shard
// lock and changed only by publish. The zero record — version 0, no tracker
// — is what an unknown node looks like.
type nodeEntry struct {
	// t is the node's tracker, never nil in a stored record. A tracker
	// pointer that has left its record never returns to one, which is what
	// lets an in-flight observe detect that a delta overtook it. It comes
	// first so a query's lookup, which wants nothing else, reads the bytes
	// next to the key.
	t *Tracker
	entryMeta
}

// meta converts the record to the exported NodeMeta form.
func (e nodeEntry) meta(node NodeID) NodeMeta {
	return NodeMeta{Node: node, Origin: e.origin, Version: e.version}
}

// store is the sharded tracker map plus the stitched-snapshot cache.
type store struct {
	shards []storeShard
	mask   uint32
	opts   []TrackerOption

	// Replication identity, set once before traffic by the peering layer
	// (see Service.SetOrigin/SetMutationHook). origin stamps local
	// mutations; onMutate, when non-nil, is invoked after every local
	// Observe so a gossip layer can queue the node for rumor propagation.
	// Remote delta application (applyDelta) does not fire the hook — the
	// peering layer forwards those itself.
	origin   string
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
	mu sync.RWMutex
	// entries holds the record of every node this shard knows — by value, so
	// a walk over every record (the anti-entropy metadata list, a full
	// sub-snapshot re-collect) streams through the map instead of chasing a
	// pointer per node.
	entries map[NodeID]nodeEntry
	// dirty lists the nodes whose tracker was written since the last
	// sub-snapshot build (a node may be listed more than once); structural
	// records a membership change (a new record), which forces a full
	// re-collect. A node is listed strictly after its tracker write lands, so
	// a rebuild that consumes the list always compiles the post-write vector.
	dirty      []NodeID
	structural bool

	// version counts completed mutations to this shard, bumped after the
	// mutation lands (same publication rule as store.version).
	version atomic.Uint64

	// Compiled sub-snapshot: nodeVecs sorted by NodeID and their posting
	// index, immutable once published. snapMu single-flights rebuilds —
	// concurrent queries that find the shard dirty serialize here, and all
	// but the first return the freshly built part without duplicating the
	// work.
	snapMu      sync.Mutex
	snapVecs    []nodeVec
	snapPost    *postings
	snapVersion uint64

	// digest is the anti-entropy digest: the wrapping sum of every record's
	// recordWord. publish keeps it current under the shard lock, so reading
	// it is one atomic load and a gossip tick costs O(writes) rather than a
	// sort of every dirty shard.
	digest atomic.Uint64

	nodes *obs.Gauge // crp.service.shard.NNN.nodes
}

// storeSnap is a stitched point-in-time view of the store's compiled
// candidate vectors: one immutable sorted slice per shard. Query kernels
// consume it part-wise; total is the candidate count across all parts.
// posts[i] indexes parts[i]; a snap built by snapOf has none.
type storeSnap struct {
	parts [][]nodeVec
	posts []*postings
	total int
}

// snapOf wraps an explicit candidate list as a one-part snap, so the query
// kernels take one input shape. It carries no postings.
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
	}
	for i := range st.shards {
		st.shards[i].entries = make(map[NodeID]nodeEntry)
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

// change is a node's next record as publish installs it.
type change struct {
	// t is the node's tracker from here on.
	t *Tracker
	// remote marks a replicated write: meta arrived in a delta and is
	// installed verbatim, and the mutation hook stays quiet — the peering
	// layer decides itself whether to forward an applied delta, and firing
	// the hook would re-stamp the record as a local write. Otherwise the
	// write is this daemon's own and publish stamps it: origin and the
	// record's next version.
	remote bool
	meta   entryMeta
}

// publish is the store's one write step. Under node's shard lock it shows
// next the node's current record (known is false, and cur zero, when the
// store has none) and, unless next declines, installs the change it returns:
// the tracker, the stamp, the dirty listing, the membership bookkeeping and
// the shard digest. Then it makes the write visible, in this order — shard
// version, store version, mutation hook. Both versions move
// strictly after the record (and, before it, the tracker) changed, so a
// sub-snapshot or stitched snapshot built concurrently is tagged with the
// older version and rebuilt on the next read. It reports whether anything
// was written; a declined change leaves every version untouched.
func (st *store) publish(node NodeID, next func(cur nodeEntry, known bool) (change, bool)) bool {
	sh := st.shardFor(node)
	sh.mu.Lock()
	e, known := sh.entries[node]
	c, ok := next(e, known)
	if !ok {
		sh.mu.Unlock()
		return false
	}
	digest := sh.digest.Load()
	if known {
		digest -= recordWord(node, e.entryMeta)
	} else {
		sh.structural = true
		sh.nodes.Inc()
	}
	// Past one listing per record a full re-collect is the cheaper rebuild,
	// and the list stays bounded with no reader around.
	if len(sh.dirty) > len(sh.entries) {
		sh.structural, sh.dirty = true, sh.dirty[:0]
	}
	sh.dirty = append(sh.dirty, node)
	if c.remote {
		e.entryMeta = c.meta
	} else {
		e.entryMeta = entryMeta{origin: st.origin, version: e.version + 1}
	}
	e.t = c.t
	sh.entries[node] = e
	sh.digest.Store(digest + recordWord(node, e.entryMeta))
	sh.mu.Unlock()
	sh.version.Add(1)
	st.version.Add(1)
	if !c.remote && st.onMutate != nil {
		st.onMutate(node)
	}
	return true
}

// recordWord is one record's share of its shard's digest: FNV-1a 64 over the
// node ID, a 0 byte, the origin, a 0 byte, the version as 8 little-endian
// bytes and a 0 byte, then the murmur3 fmix64 finalizer so that records
// differing in one byte land on unrelated words. The last byte is where a
// deleted flag was hashed before deletion was removed; it stays, as 0, so
// every digest equals an older build's and a mixed-build mesh still agrees.
// The digest adds these words up (an additive multiset hash), so it is
// independent of the order records were written in and publish can move it
// by one record.
func recordWord(node NodeID, m entryMeta) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(node); i++ {
		h = (h ^ uint64(node[i])) * prime64
	}
	h *= prime64 // the 0 separator
	for i := 0; i < len(m.origin); i++ {
		h = (h ^ uint64(m.origin[i])) * prime64
	}
	h *= prime64
	for s := 0; s < 64; s += 8 {
		h = (h ^ uint64(byte(m.version>>s))) * prime64
	}
	h *= prime64
	// fmix64
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// commit publishes t as node's tracker under a local stamp, provided the
// record still holds the tracker the caller started from (was; nil for "no
// record"). The caller changed t outside the shard lock, so a superseding
// delta may have replaced the record meanwhile; commit then declines and
// the caller starts over from the new record, which is what makes the
// outcome one that some serial order of the two calls produces — never a
// probe lost on a tracker that left its record.
func (st *store) commit(node NodeID, was, t *Tracker) bool {
	return st.publish(node, func(cur nodeEntry, _ bool) (change, bool) {
		return change{t: t}, cur.t == was
	})
}

// observe records one probe for node: tr runs against the node's tracker —
// a fresh one on first sight — and the result is published, invalidating
// only node's shard. Concurrent observes of one node share its tracker and
// each advance the record version by exactly one, so the final version
// always describes the final probe window. tr runs again, on the record's
// new tracker, when a delta overtook it.
func (st *store) observe(node NodeID, tr func(*Tracker)) {
	for {
		was, _ := st.get(node)
		t := was
		if t == nil {
			t = NewTracker(st.opts...)
		}
		tr(t)
		if st.commit(node, was, t) {
			return
		}
	}
}

// get returns node's tracker.
func (st *store) get(node NodeID) (*Tracker, bool) {
	sh := st.shardFor(node)
	sh.mu.RLock()
	t := sh.entries[node].t
	sh.mu.RUnlock()
	return t, t != nil
}

// nodeRec is one record as records copies it out.
type nodeRec struct {
	NodeMeta
	t *Tracker
}

// records is the one sorted walk over the node map: a copy of every record
// in shards (the whole store, or one shard for the anti-entropy diff) in
// ascending node order.
func records(shards []storeShard) []nodeRec {
	var out []nodeRec
	for i := range shards {
		sh := &shards[i]
		sh.mu.RLock()
		out = slices.Grow(out, len(sh.entries))
		for id, e := range sh.entries {
			out = append(out, nodeRec{e.meta(id), e.t})
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(out, func(a, b nodeRec) int { return cmp.Compare(a.Node, b.Node) })
	return out
}

// nodeIDs returns every known node ID in ascending order.
func (st *store) nodeIDs() []NodeID {
	recs := records(st.shards)
	out := make([]NodeID, len(recs))
	for i := range recs {
		out[i] = recs[i].Node
	}
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
	posts := make([]*postings, len(st.shards))
	total := 0
	for i := range st.shards {
		parts[i], posts[i] = st.shards[i].vecs()
		total += len(parts[i])
	}
	st.stitched = storeSnap{parts: parts, posts: posts, total: total}
	st.stitchVersion, st.stitchValid = v, true
	return st.stitched
}

// vecs returns the shard's compiled sub-snapshot and its posting index,
// rebuilding both if a write landed since the last build. When the shard's
// membership is unchanged (no new record), the rebuild patches only the
// dirty nodes' vectors into a copy of the previous slice — no re-collect, no
// re-sort — and keeps the previous postings unless some patched vector's
// replica set changed, which rebuilds them.
func (sh *storeShard) vecs() ([]nodeVec, *postings) {
	v := sh.version.Load()
	sh.snapMu.Lock()
	defer sh.snapMu.Unlock()
	if sh.snapVecs != nil && sh.snapVersion == v {
		return sh.snapVecs, sh.snapPost
	}
	svcMetrics.shardRebuilds.Inc()

	// Consume the dirty list under the shard lock: the nodes to compile are
	// every one after a membership change, the listed ones otherwise.
	// Every consumed listing was published after its tracker write, so
	// compiling below (after the version load above) observes the written
	// state; nodes listed later stay for the next rebuild, which the
	// post-write version bump guarantees will happen.
	sh.mu.Lock()
	structural := sh.structural || sh.snapVecs == nil
	sh.structural = false
	n := len(sh.dirty)
	if structural {
		n = len(sh.entries)
	}
	vecs := make([]nodeVec, 0, n)
	trackers := make([]*Tracker, 0, n)
	collect := func(id NodeID, t *Tracker) {
		vecs = append(vecs, nodeVec{id: id})
		trackers = append(trackers, t)
	}
	if structural {
		for id, e := range sh.entries {
			collect(id, e.t)
		}
	} else {
		for _, id := range sh.dirty {
			collect(id, sh.entries[id].t)
		}
	}
	clear(sh.dirty) // release the ID strings; the backing array is reused
	sh.dirty = sh.dirty[:0]
	sh.mu.Unlock()

	// Compile outside the shard lock: vec() is usually a per-tracker cache
	// hit, and a rebuild must never block the shard's writers.
	for i := range vecs {
		vecs[i].vec = trackers[i].vec()
	}
	sc := postScratch.Get().(*postBuf)
	defer postScratch.Put(sc)
	if structural {
		slices.SortFunc(vecs, func(a, b nodeVec) int { return cmp.Compare(a.id, b.id) })
		sh.snapVecs, sh.snapPost, sh.snapVersion = vecs, sc.build(vecs), v
		return sh.snapVecs, sh.snapPost
	}

	patched := make([]nodeVec, len(sh.snapVecs))
	copy(patched, sh.snapVecs)
	moved := false // some patched vector's replica set changed
	for _, nv := range vecs {
		if pos, ok := slices.BinarySearchFunc(patched, nv.id, func(p nodeVec, id NodeID) int { return cmp.Compare(p.id, id) }); ok {
			moved = moved || !slices.Equal(patched[pos].vec.ids, nv.vec.ids)
			patched[pos].vec = nv.vec
		}
	}
	if moved {
		sh.snapPost = sc.build(patched)
	}
	sh.snapVecs, sh.snapVersion = patched, v
	return sh.snapVecs, sh.snapPost
}

// postings is one part's replica → node index in compressed sparse row
// form: keys holds the distinct replicaKeys of the part's vectors in
// ascending order, and the nodes carrying keys[i] are the part's vectors at
// the indices idx[offs[i]:offs[i+1]], ascending. The three slices share one
// allocation and are immutable once published. Keys are 32-bit hashes, so
// two replica IDs may share a list: a query then scores a superset of the
// nodes that share a replica with its client, never a subset.
type postings struct {
	keys, offs, idx []uint32
}

// replicaKey is the posting index's key for a replica ID.
func replicaKey(r ReplicaID) uint32 { return fnvKey(string(r)) }

// nodes returns the indices of the part's vectors that carry key, ascending.
func (p *postings) nodes(key uint32) []uint32 {
	i, ok := slices.BinarySearch(p.keys, key)
	if !ok {
		return nil
	}
	return p.idx[p.offs[i]:p.offs[i+1]]
}

// postScratch recycles the buffers a postings build works in, so a rebuild
// allocates only the postings it publishes. A build works on words: one
// (key, index) posting packed into a uint64, key high, so ascending words
// are the CSR order.
var postScratch = sync.Pool{New: func() any { return new(postBuf) }}

type postBuf struct {
	words, tmp []uint64
}

// build indexes vecs, a part sorted by NodeID, from scratch: every replica
// of every vector is hashed, and the words are sorted by key.
func (sc *postBuf) build(vecs []nodeVec) *postings {
	sc.words = sc.words[:0]
	for i, nv := range vecs {
		sc.words = appendWords(sc.words, uint32(i), nv.vec)
	}
	return csr(sc.sortByKey(sc.words))
}

// appendWords appends the words of vector v at index i, in its replica
// order.
func appendWords(words []uint64, i uint32, v ratioVec) []uint64 {
	for _, r := range v.ids {
		words = append(words, uint64(replicaKey(r))<<32|uint64(i))
	}
	return words
}

// sortByKey sorts words, generated in ascending index order, by key with a
// stable byte-wise radix sort, so each key's indices stay ascending without
// a comparison sort. The result is words or sc.tmp, whichever the last pass
// wrote.
func (sc *postBuf) sortByKey(words []uint64) []uint64 {
	if cap(sc.tmp) < len(words) {
		sc.tmp = make([]uint64, len(words))
	}
	tmp := sc.tmp[:len(words)]
	for shift := 32; shift < 64; shift += 8 {
		var count [256]int
		for _, w := range words {
			count[byte(w>>shift)]++
		}
		at := 0
		for b, c := range count {
			count[b] = at
			at += c
		}
		for _, w := range words {
			b := byte(w >> shift)
			tmp[count[b]] = w
			count[b]++
		}
		words, tmp = tmp, words
	}
	return words
}

// csr packs sorted words into postings, in one allocation. Equal words —
// two replica IDs of one node hashing alike — are one entry.
func csr(words []uint64) *postings {
	keys, entries := 0, 0
	for i, w := range words {
		if i == 0 || w != words[i-1] {
			entries++
			if i == 0 || w>>32 != words[i-1]>>32 {
				keys++
			}
		}
	}
	all := make([]uint32, 2*keys+1+entries)
	p := &postings{keys: all[:0:keys], offs: all[keys : keys : 2*keys+1], idx: all[2*keys+1 : 2*keys+1]}
	for i, w := range words {
		if i > 0 && w == words[i-1] {
			continue
		}
		if i == 0 || w>>32 != words[i-1]>>32 {
			p.keys = append(p.keys, uint32(w>>32))
			p.offs = append(p.offs, uint32(len(p.idx)))
		}
		p.idx = append(p.idx, uint32(w))
	}
	p.offs = append(p.offs, uint32(len(p.idx)))
	return p
}

// applyDelta installs a remotely-produced node entry if it supersedes the
// local one under the last-writer-wins rule (NodeMeta.Supersedes). The probe
// window is replaced wholesale — deltas carry the origin's full window, so
// replication never interleaves probe histories and every replica of an entry
// version is byte-identical. Returns false when the delta is stale or
// idempotent (local record equal or newer).
func (st *store) applyDelta(d NodeDelta) bool {
	// Build the replacement tracker outside the shard lock; replaying the
	// probe window touches no shared state.
	t := NewTracker(st.opts...)
	for _, p := range d.Probes {
		t.Observe(p.At, p.Replicas...)
	}
	meta := entryMeta{origin: d.Origin, version: d.Version}
	return st.publish(d.Node, func(cur nodeEntry, known bool) (change, bool) {
		return change{t: t, remote: true, meta: meta},
			!known || d.NodeMeta.Supersedes(cur.meta(d.Node))
	})
}

// exportDelta packages node's full current state — replication metadata plus
// the complete probe window — for transmission to a peer. ok is false when
// the store has never heard of the node.
func (st *store) exportDelta(node NodeID) (NodeDelta, bool) {
	sh := st.shardFor(node)
	sh.mu.RLock()
	e, known := sh.entries[node]
	sh.mu.RUnlock()
	if !known {
		return NodeDelta{}, false
	}
	return NodeDelta{NodeMeta: e.meta(node), Probes: e.t.Probes()}, true
}

// shardMetas returns the replication metadata of every entry in shard i,
// sorted by node ID. The peering layer ships these flat lists when two
// peers' shard digests disagree.
func (st *store) shardMetas(i int) []NodeMeta {
	recs := records(st.shards[i : i+1])
	out := make([]NodeMeta, len(recs))
	for j := range recs {
		out[j] = recs[j].NodeMeta
	}
	return out
}

// shardDigest returns shard i's anti-entropy digest: the sum of its
// records' recordWords. Two shards with identical (node, origin, version)
// sets — the full replicated state, since the probe window is a function of
// (origin, version) — produce identical digests, so digest comparison is the
// cheap first phase of anti-entropy: only shards whose words differ exchange
// metadata. publish keeps the sum current, so this is one atomic load.
func (st *store) shardDigest(i int) uint64 {
	return st.shards[i].digest.Load()
}

// digests returns every shard's digest, indexed by shard.
func (st *store) digests() []uint64 {
	out := make([]uint64, len(st.shards))
	for i := range st.shards {
		out[i] = st.shardDigest(i)
	}
	return out
}
