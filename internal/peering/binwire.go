package peering

import (
	"fmt"

	"repro/crp"
	"repro/internal/binwire"
)

// The gossip frame. This file is the only place that knows the format; one
// datagram is:
//
//	byte 0   binMagic (0xCE — not a printable byte, so text aimed at the
//	         gossip port is rejected on sight)
//	byte 1   binVersion
//	byte 2   message type code
//	from     string
//	addr     string
//	ttl      uvarint
//	shardCount uvarint
//	digests  uvarint count, then count fixed 8-byte words (digest hashes
//	         have full-entropy high bits; varints would inflate them)
//	shards   uvarint count, then count uvarints
//	metas    uvarint count, then per meta: node, origin, version uvarint,
//	         flags u8 (bit0 deleted)
//	deltas   uvarint count, then per delta: node, origin, version uvarint,
//	         flags u8 (bit0 deleted, bit1 deletedAt present),
//	         [deletedAt time], probes (uvarint count, then per probe:
//	         at time, replicas uvarint count + strings)
//	nodes    uvarint count, then count strings
//
// Strings are uvarint-length-prefixed; times are seconds (zig-zag varint)
// + nanoseconds (uvarint). Every message carries the full field set (empty
// collections cost one zero byte). Encoding is canonical (collections keep
// caller order, which the engine already sorts), so identical messages are
// byte-identical — the determinism the bench's rerun gate relies on.

const (
	// binMagic opens every gossip datagram.
	binMagic = 0xCE
	// binVersion is the frame version, and the link's only compatibility
	// mechanism: any other version is rejected, so a format change cannot be
	// misparsed. Version 1 carried a codec-advertisement string after addr.
	binVersion = 2
	// binOverhead is the byte budget reserved for the fixed message fields
	// (magic, version, type, IDs, counts) when packing collections to the
	// wire budget: 3 header bytes + two 255-byte IDs with length prefixes +
	// ttl + shardCount + six counts, with slack. Packers fill
	// MaxMsgSize-binOverhead with entries and the encoder's final size check
	// still backstops the arithmetic.
	binOverhead = 640
)

// binTypeCodes maps Msg.Type to its wire code; binTypeNames is the inverse.
var binTypeCodes = map[string]byte{
	MsgJoin: 0, MsgJoinAck: 1, MsgDelta: 2, MsgDigest: 3, MsgDiff: 4, MsgPull: 5,
}

var binTypeNames = func() map[byte]string {
	m := make(map[byte]string, len(binTypeCodes))
	for name, code := range binTypeCodes {
		m[code] = name
	}
	return m
}()

// encodePeerMsg marshals one message, enforcing the datagram bound —
// anything it returns is guaranteed sendable.
func encodePeerMsg(m *Msg) ([]byte, error) {
	code, ok := binTypeCodes[m.Type]
	if !ok {
		return nil, fmt.Errorf("peering: unknown message type %q", m.Type)
	}
	var e binwire.Enc
	e.U8(binMagic)
	e.U8(binVersion)
	e.U8(code)
	e.String(m.From)
	e.String(m.Addr)
	e.Uvarint(uint64(m.TTL))
	e.Uvarint(uint64(m.ShardCount))
	e.Uvarint(uint64(len(m.Digests)))
	for _, d := range m.Digests {
		e.U64(d)
	}
	e.Uvarint(uint64(len(m.Shards)))
	for _, s := range m.Shards {
		e.Uvarint(uint64(s))
	}
	e.Uvarint(uint64(len(m.Metas)))
	for i := range m.Metas {
		encodeBinaryMeta(&e, &m.Metas[i])
	}
	e.Uvarint(uint64(len(m.Deltas)))
	for i := range m.Deltas {
		encodeBinaryDelta(&e, &m.Deltas[i])
	}
	e.Uvarint(uint64(len(m.Nodes)))
	for _, n := range m.Nodes {
		e.String(n)
	}
	if n := len(e.Bytes()); n > MaxMsgSize {
		return nil, fmt.Errorf("peering: encoded message %d bytes exceeds %d", n, MaxMsgSize)
	}
	return append([]byte(nil), e.Bytes()...), nil
}

func encodeBinaryMeta(e *binwire.Enc, m *crp.NodeMeta) {
	e.String(string(m.Node))
	e.String(m.Origin)
	e.Uvarint(m.Version)
	var flags byte
	if m.Deleted {
		flags |= 1
	}
	e.U8(flags)
}

func encodeBinaryDelta(e *binwire.Enc, d *crp.NodeDelta) {
	e.String(string(d.Node))
	e.String(d.Origin)
	e.Uvarint(d.Version)
	var flags byte
	if d.Deleted {
		flags |= 1
	}
	if !d.DeletedAt.IsZero() {
		flags |= 2
	}
	e.U8(flags)
	if !d.DeletedAt.IsZero() {
		e.Time(d.DeletedAt)
	}
	e.Uvarint(uint64(len(d.Probes)))
	for i := range d.Probes {
		e.Time(d.Probes[i].At)
		e.Uvarint(uint64(len(d.Probes[i].Replicas)))
		for _, r := range d.Probes[i].Replicas {
			e.String(string(r))
		}
	}
}

// binMetaSize returns the exact wire size of one encoded meta.
func binMetaSize(m *crp.NodeMeta) int {
	return binwire.StringLen(string(m.Node)) + binwire.StringLen(m.Origin) +
		binwire.UvarintLen(m.Version) + 1
}

// binDeltaSize returns the exact wire size of one encoded delta; the
// size-budget packers commit an entry only when it fits.
func binDeltaSize(d *crp.NodeDelta) int {
	n := binwire.StringLen(string(d.Node)) + binwire.StringLen(d.Origin) +
		binwire.UvarintLen(d.Version) + 1
	if !d.DeletedAt.IsZero() {
		n += binwire.TimeLen(d.DeletedAt)
	}
	n += binwire.UvarintLen(uint64(len(d.Probes)))
	for i := range d.Probes {
		n += binwire.TimeLen(d.Probes[i].At)
		n += binwire.UvarintLen(uint64(len(d.Probes[i].Replicas)))
		for _, r := range d.Probes[i].Replicas {
			n += binwire.StringLen(string(r))
		}
	}
	return n
}

// packDeltas exports the named entries in order and cuts them into chunks
// that each fill one delta message, for the link and the state file alike.
// An entry no message can carry — one checkDelta refuses, or over the byte
// budget alone — is left out and named in skipped.
func packDeltas(svc *crp.Service, nodes []crp.NodeID) (chunks [][]crp.NodeDelta, skipped []error) {
	budget := MaxMsgSize - binOverhead
	deltas := make([]crp.NodeDelta, 0, len(nodes))
	for _, node := range nodes {
		d, ok := svc.ExportDelta(node)
		if !ok {
			continue
		}
		err := checkDelta(0, &d)
		if n := binDeltaSize(&d); err == nil && n > budget {
			err = fmt.Errorf("%d bytes exceeds the %d-byte delta budget", n, budget)
		}
		if err != nil {
			skipped = append(skipped, fmt.Errorf("peering: record %q: %w", node, err))
			continue
		}
		deltas = append(deltas, d)
	}
	start, used := 0, 0
	for i := range deltas {
		n := binDeltaSize(&deltas[i])
		if i > start && (used+n > budget || i-start >= MaxDeltas) {
			chunks = append(chunks, deltas[start:i])
			start, used = i, 0
		}
		used += n
	}
	if start < len(deltas) {
		chunks = append(chunks, deltas[start:])
	}
	return chunks, skipped
}

// decodePeerMsg parses and bounds-checks one gossip datagram. It is the
// single decode path — the socket loop and the deterministic in-memory
// harness both route through it. Structural bounds (string lengths, counts
// vs remaining bytes) are enforced while parsing; checkPeerMsg then runs the
// semantic validation on the result.
func decodePeerMsg(raw []byte) (Msg, error) {
	var m Msg
	if len(raw) > MaxMsgSize {
		return m, fmt.Errorf("message too large: %d bytes exceeds the %d-byte limit", len(raw), MaxMsgSize)
	}
	d := binwire.NewDec(raw)
	magic, err := d.U8()
	if err != nil {
		return m, fmt.Errorf("bad message: %v", err)
	}
	if magic != binMagic {
		return m, fmt.Errorf("bad message: first byte 0x%02x is not the gossip magic", magic)
	}
	ver, err := d.U8()
	if err != nil {
		return m, fmt.Errorf("bad message: %v", err)
	}
	if ver != binVersion {
		return m, fmt.Errorf("unsupported frame version %d", ver)
	}
	code, err := d.U8()
	if err != nil {
		return m, fmt.Errorf("bad message: %v", err)
	}
	name, ok := binTypeNames[code]
	if !ok {
		return m, fmt.Errorf("unknown message type code %d", code)
	}
	m.Type = name
	if m.From, err = d.String(MaxIDBytes); err != nil {
		return m, fmt.Errorf("from: %v", err)
	}
	if m.Addr, err = d.String(MaxIDBytes); err != nil {
		return m, fmt.Errorf("addr: %v", err)
	}
	ttl, err := d.Uvarint()
	if err != nil || ttl > MaxTTL {
		return m, fmt.Errorf("ttl: bad value")
	}
	m.TTL = int(ttl)
	sc, err := d.Uvarint()
	if err != nil || sc > MaxShardCount {
		return m, fmt.Errorf("shardCount: bad value")
	}
	m.ShardCount = int(sc)

	n, err := d.Count(MaxShardCount, 8)
	if err != nil {
		return m, fmt.Errorf("digests: %v", err)
	}
	if n > 0 {
		m.Digests = make([]uint64, n)
		for i := range m.Digests {
			if m.Digests[i], err = d.U64(); err != nil {
				return m, fmt.Errorf("digests[%d]: %v", i, err)
			}
		}
	}

	if n, err = d.Count(MaxShardCount, 1); err != nil {
		return m, fmt.Errorf("shards: %v", err)
	}
	if n > 0 {
		m.Shards = make([]int, n)
		for i := range m.Shards {
			s, err := d.Uvarint()
			if err != nil || s >= MaxShardCount {
				return m, fmt.Errorf("shards[%d]: bad value", i)
			}
			m.Shards[i] = int(s)
		}
	}

	if n, err = d.Count(MaxMetas, 4); err != nil {
		return m, fmt.Errorf("metas: %v", err)
	}
	if n > 0 {
		m.Metas = make([]crp.NodeMeta, n)
		for i := range m.Metas {
			if err := decodeBinaryMeta(d, &m.Metas[i]); err != nil {
				return m, fmt.Errorf("metas[%d]: %v", i, err)
			}
		}
	}

	if n, err = d.Count(MaxDeltas, 5); err != nil {
		return m, fmt.Errorf("deltas: %v", err)
	}
	if n > 0 {
		m.Deltas = make([]crp.NodeDelta, n)
		for i := range m.Deltas {
			if err := decodeBinaryDelta(d, &m.Deltas[i]); err != nil {
				return m, fmt.Errorf("deltas[%d]: %v", i, err)
			}
		}
	}

	if n, err = d.Count(MaxPullNodes, 2); err != nil {
		return m, fmt.Errorf("nodes: %v", err)
	}
	if n > 0 {
		m.Nodes = make([]string, n)
		for i := range m.Nodes {
			if m.Nodes[i], err = d.String(MaxIDBytes); err != nil {
				return m, fmt.Errorf("nodes[%d]: %v", i, err)
			}
		}
	}
	if err := d.Done(); err != nil {
		return m, fmt.Errorf("bad message: %v", err)
	}
	return m, checkPeerMsg(&m)
}

func decodeBinaryMeta(d *binwire.Dec, m *crp.NodeMeta) error {
	var err error
	var node string
	if node, err = d.String(MaxIDBytes); err != nil {
		return err
	}
	m.Node = crp.NodeID(node)
	if m.Origin, err = d.String(MaxIDBytes); err != nil {
		return err
	}
	if m.Version, err = d.Uvarint(); err != nil {
		return err
	}
	flags, err := d.U8()
	if err != nil {
		return err
	}
	if flags > 1 {
		return fmt.Errorf("reserved meta flags 0x%02x", flags)
	}
	m.Deleted = flags&1 != 0
	return nil
}

func decodeBinaryDelta(d *binwire.Dec, nd *crp.NodeDelta) error {
	var err error
	var node string
	if node, err = d.String(MaxIDBytes); err != nil {
		return err
	}
	nd.Node = crp.NodeID(node)
	if nd.Origin, err = d.String(MaxIDBytes); err != nil {
		return err
	}
	if nd.Version, err = d.Uvarint(); err != nil {
		return err
	}
	flags, err := d.U8()
	if err != nil {
		return err
	}
	if flags > 3 {
		return fmt.Errorf("reserved delta flags 0x%02x", flags)
	}
	nd.Deleted = flags&1 != 0
	if flags&2 != 0 {
		if nd.DeletedAt, err = d.Time(); err != nil {
			return err
		}
	}
	n, err := d.Count(MaxProbesPerDelta, 3)
	if err != nil {
		return err
	}
	if n > 0 {
		nd.Probes = make([]crp.Probe, n)
		for i := range nd.Probes {
			p := &nd.Probes[i]
			if p.At, err = d.Time(); err != nil {
				return err
			}
			rn, err := d.Count(MaxReplicasPerProbe, 1)
			if err != nil {
				return err
			}
			if rn > 0 {
				p.Replicas = make([]crp.ReplicaID, rn)
				for j := range p.Replicas {
					r, err := d.String(MaxIDBytes)
					if err != nil {
						return err
					}
					p.Replicas[j] = crp.ReplicaID(r)
				}
			}
		}
	}
	return nil
}
