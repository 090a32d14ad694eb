package crp

import "errors"

// Replication surface of the Service, consumed by internal/peering. Every
// node entry carries last-writer-wins metadata (origin daemon + monotonic
// per-node version); a delta ships that metadata together with the entry's
// complete probe window, so applying a delta replaces the window wholesale
// and replicas of the same entry version are byte-identical everywhere. The
// convergence argument and the digest protocol built on ShardDigests are
// laid out in DESIGN.md "Gossip".

// NodeMeta is the replication metadata of one node entry as exchanged
// between peers: which daemon last mutated the entry and the entry's
// monotonic version.
type NodeMeta struct {
	Node    NodeID `json:"node"`
	Origin  string `json:"origin,omitempty"`
	Version uint64 `json:"version"`
}

// Supersedes reports whether m wins over o under the last-writer-wins rule:
// higher version wins; equal versions tie-break on origin (lexicographically
// greater wins, so concurrent writers resolve identically everywhere). Equal
// metadata never supersedes — re-applying it is idempotent. The relation is
// a total order over distinct metadata, which is what makes delta application
// commutative: any interleaving of the same delta set converges to the same
// store.
func (m NodeMeta) Supersedes(o NodeMeta) bool {
	if m.Version != o.Version {
		return m.Version > o.Version
	}
	return m.Origin > o.Origin
}

// NodeDelta is one replicated node entry in transit: its metadata plus the
// full probe window.
type NodeDelta struct {
	NodeMeta
	Probes []Probe `json:"probes,omitempty"`
}

// SetOrigin declares this service's daemon identity, stamped as the origin
// of every subsequent local mutation. Set once, before traffic; it is not
// synchronized against in-flight mutations.
func (s *Service) SetOrigin(id string) {
	s.store.origin = id
}

// SetMutationHook installs fn, called after every local Observe with
// the mutated node ID (remote delta application does not fire it). The
// peering layer uses this to queue fresh local mutations for rumor pushes.
// Set once, before traffic; fn must be safe for concurrent calls and must
// not call back into the Service.
func (s *Service) SetMutationHook(fn func(NodeID)) {
	s.store.onMutate = fn
}

// ShardCount returns the store's shard width. Peers can only compare shard
// digests when their widths agree.
func (s *Service) ShardCount() int {
	return len(s.store.shards)
}

// ShardOf returns the index of the shard holding node.
func (s *Service) ShardOf(node NodeID) int {
	return s.store.shardIndex(node)
}

// ShardDigests returns one digest word per shard: the wrapping sum of a
// per-record hash of the replication metadata of the shard's entries. Two stores with equal digests at equal widths hold
// the same replicated state. The store keeps each word current on write, so
// the call costs one load per shard; the words are only comparable between
// daemons of one build.
func (s *Service) ShardDigests() []uint64 {
	return s.store.digests()
}

// ShardMetas returns the replication metadata of every entry in shard i,
// sorted by node ID, for the anti-entropy diff phase.
func (s *Service) ShardMetas(i int) ([]NodeMeta, error) {
	if i < 0 || i >= len(s.store.shards) {
		return nil, errors.New("crp: shard index out of range")
	}
	return s.store.shardMetas(i), nil
}

// ExportDelta packages node's full current state for transmission to a peer;
// ok is false when the store has never heard of the node.
func (s *Service) ExportDelta(node NodeID) (NodeDelta, bool) {
	return s.store.exportDelta(node)
}

// ApplyDelta installs a remotely-produced delta if it supersedes the local
// entry, replacing the probe window wholesale. It reports whether the delta
// was applied (false means stale or idempotent). The mutation hook does not
// fire for applied deltas.
func (s *Service) ApplyDelta(d NodeDelta) (bool, error) {
	if d.Node == "" {
		return false, errors.New("crp: delta with empty node ID")
	}
	if d.Version == 0 {
		return false, errors.New("crp: delta with zero version")
	}
	return s.store.applyDelta(d), nil
}
