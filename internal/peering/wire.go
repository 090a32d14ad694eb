package peering

import (
	"fmt"

	"repro/crp"
	"repro/internal/binwire"
)

// Gossip wire protocol: one Msg per UDP datagram, in the one frame format
// binwire.go defines (DESIGN.md "Gossip"). The bounds discipline is the crpd
// request path's (internal/crpdaemon/decode.go): every field that sizes an
// allocation, keys a map or indexes a slice is bounded in the decode path
// before any handler logic runs, so a hostile or corrupted datagram costs
// one counter bump, never memory or CPU.

// Msg types.
const (
	// MsgJoin introduces a daemon to a peer: "add me at Addr". The receiver
	// answers MsgJoinAck (introducing itself back) so one join call meshes
	// both sides.
	MsgJoin = "join"
	// MsgJoinAck confirms a join and carries the receiver's identity.
	MsgJoinAck = "join-ack"
	// MsgDelta carries full node entries (rumor push or anti-entropy
	// repair). TTL is the remaining rumor hop budget.
	MsgDelta = "delta"
	// MsgDigest opens an anti-entropy round: per-shard digest words.
	MsgDigest = "digest"
	// MsgDiff answers a digest: the differing shard indices plus the
	// sender's entry metadata for those shards.
	MsgDiff = "diff"
	// MsgPull requests full entries for the named nodes.
	MsgPull = "pull"
)

// Wire bounds.
const (
	// MaxMsgSize bounds the raw datagram at the IPv4 UDP payload ceiling
	// (65535 - 8 UDP - 20 IP), matching crpdaemon.MaxReplySize. It used to
	// be 64 KiB, which left a 65508..65536-byte gap where a message passed
	// the encoder's own size check and then failed at WriteTo — the bound
	// now guarantees that whatever the encoder accepts is sendable.
	MaxMsgSize = 65507
	// MaxIDBytes bounds daemon IDs, addresses and node names (DNS-name
	// scale, like crpd's identity fields).
	MaxIDBytes = 255
	// MaxShardCount bounds the digest vector and any shard index. A digest
	// message carries one fixed 8-byte word per shard, so the worst case at
	// this width (two 255-byte IDs) is ~17 KiB, well under MaxMsgSize;
	// TestWorstCaseDigestFitsTheWire pins it. New rejects wider stores up
	// front. The crp shard clamp tops out at 1024, so defaults keep 2x
	// headroom.
	MaxShardCount = 2048
	// MaxMetas bounds the flat metadata list of a diff. It is a decode
	// sanity cap, not a fit guarantee: worst-case metas (255-byte node and
	// origin IDs) overflow a datagram well before this count, so outbound
	// diffs are packed to the byte budget (handleDigest) and only whole
	// shards whose metas fit are claimed as covered.
	MaxMetas = 4096
	// MaxDeltas is the decode sanity cap for delta messages, whose batching
	// is size-driven: entries are packed until the datagram budget is
	// reached. The smallest possible entry is ~6 wire bytes, so a datagram
	// can physically hold ~10k; the cap sits above that and the decoder's
	// remaining-bytes check enforces the real ceiling.
	MaxDeltas = 16384
	// MaxProbesPerDelta bounds one entry's probe window.
	MaxProbesPerDelta = 4096
	// MaxReplicasPerProbe bounds one probe's replica set.
	MaxReplicasPerProbe = 64
	// MaxPullNodes bounds the node list of a pull.
	MaxPullNodes = 1024
	// MaxTTL bounds the rumor hop budget.
	MaxTTL = 16
	// maxMetasPerMsg and maxPullPerMsg are the outbound count caps on one
	// diff's meta list and one pull's node list, each half the decode bound.
	maxMetasPerMsg = 2048
	maxPullPerMsg  = 512
)

// Msg is one gossip datagram. Fields are pooled across types; decodePeerMsg
// checks only the bounds, handlers ignore fields their type doesn't use.
type Msg struct {
	Type string
	// From is the sender's daemon ID.
	From string
	// Addr is the sender's gossip listen address (join/join-ack), so the
	// receiver can add the sender as a peer.
	Addr string
	// ShardCount is the sender's store width (digest); digest comparison is
	// only defined between equal widths.
	ShardCount int
	// Digests is the per-shard digest vector (digest).
	Digests []uint64
	// Shards lists the differing shard indices (diff).
	Shards []int
	// Metas is the flat entry-metadata list for those shards (diff).
	Metas []crp.NodeMeta
	// Deltas carries full node entries (delta).
	Deltas []crp.NodeDelta
	// Nodes names the entries requested (pull).
	Nodes []string
	// TTL is the remaining rumor hop budget of the carried deltas (delta).
	TTL int
}

// checkPeerMsg validates the decoded fields against the wire bounds.
func checkPeerMsg(m *Msg) error {
	if _, ok := binTypeCodes[m.Type]; !ok {
		return fmt.Errorf("unknown message type %q", m.Type)
	}
	if err := binwire.CheckID("from", m.From, MaxIDBytes); err != nil {
		return err
	}
	if m.From == "" {
		return fmt.Errorf("from is required")
	}
	if err := binwire.CheckID("addr", m.Addr, MaxIDBytes); err != nil {
		return err
	}
	if m.ShardCount < 0 || m.ShardCount > MaxShardCount {
		return fmt.Errorf("shardCount %d outside [0, %d]", m.ShardCount, MaxShardCount)
	}
	if len(m.Digests) > MaxShardCount {
		return fmt.Errorf("digest vector has %d entries, limit %d", len(m.Digests), MaxShardCount)
	}
	if len(m.Shards) > MaxShardCount {
		return fmt.Errorf("shard list has %d entries, limit %d", len(m.Shards), MaxShardCount)
	}
	for i, s := range m.Shards {
		if s < 0 || s >= MaxShardCount {
			return fmt.Errorf("shards[%d] = %d outside [0, %d)", i, s, MaxShardCount)
		}
	}
	if len(m.Metas) > MaxMetas {
		return fmt.Errorf("meta list has %d entries, limit %d", len(m.Metas), MaxMetas)
	}
	for i := range m.Metas {
		if err := binwire.CheckID(fmt.Sprintf("metas[%d].node", i), string(m.Metas[i].Node), MaxIDBytes); err != nil {
			return err
		}
		if m.Metas[i].Node == "" {
			return fmt.Errorf("metas[%d] has an empty node ID", i)
		}
		if err := binwire.CheckID(fmt.Sprintf("metas[%d].origin", i), m.Metas[i].Origin, MaxIDBytes); err != nil {
			return err
		}
	}
	if len(m.Deltas) > MaxDeltas {
		return fmt.Errorf("delta list has %d entries, limit %d", len(m.Deltas), MaxDeltas)
	}
	for i := range m.Deltas {
		if err := checkDelta(i, &m.Deltas[i]); err != nil {
			return err
		}
	}
	if len(m.Nodes) > MaxPullNodes {
		return fmt.Errorf("node list has %d entries, limit %d", len(m.Nodes), MaxPullNodes)
	}
	for i, n := range m.Nodes {
		if err := binwire.CheckID(fmt.Sprintf("nodes[%d]", i), n, MaxIDBytes); err != nil {
			return err
		}
		if n == "" {
			return fmt.Errorf("nodes[%d] is empty", i)
		}
	}
	if m.TTL < 0 || m.TTL > MaxTTL {
		return fmt.Errorf("ttl %d outside [0, %d]", m.TTL, MaxTTL)
	}
	return nil
}

// checkDelta bounds one carried node entry, formatting a field name only once
// its check fails: the link checks every delta it sends as well as receives.
func checkDelta(i int, d *crp.NodeDelta) error {
	if binwire.CheckID("", string(d.Node), MaxIDBytes) != nil {
		return binwire.CheckID(fmt.Sprintf("deltas[%d].node", i), string(d.Node), MaxIDBytes)
	}
	if d.Node == "" {
		return fmt.Errorf("deltas[%d] has an empty node ID", i)
	}
	if binwire.CheckID("", d.Origin, MaxIDBytes) != nil {
		return binwire.CheckID(fmt.Sprintf("deltas[%d].origin", i), d.Origin, MaxIDBytes)
	}
	if len(d.Probes) > MaxProbesPerDelta {
		return fmt.Errorf("deltas[%d] has %d probes, limit %d", i, len(d.Probes), MaxProbesPerDelta)
	}
	for j := range d.Probes {
		if len(d.Probes[j].Replicas) > MaxReplicasPerProbe {
			return fmt.Errorf("deltas[%d].probes[%d] has %d replicas, limit %d",
				i, j, len(d.Probes[j].Replicas), MaxReplicasPerProbe)
		}
		for k, r := range d.Probes[j].Replicas {
			if binwire.CheckID("", string(r), MaxIDBytes) != nil {
				return binwire.CheckID(fmt.Sprintf("deltas[%d].probes[%d].replicas[%d]", i, j, k), string(r), MaxIDBytes)
			}
		}
	}
	return nil
}
