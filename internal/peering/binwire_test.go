package peering

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/crp"
	"repro/internal/binwire"
	"repro/internal/fuzzcorpus"
	"repro/internal/obs"
)

// sampleMsgs covers every message type with every field its type uses,
// including the encoding edge cases (zero time, tombstones, empty
// collections).
func sampleMsgs() []Msg {
	thresholdAt := time.Date(2026, 8, 8, 10, 20, 30, 123456789, time.UTC)
	return []Msg{
		{Type: MsgJoin, From: "d1", Addr: "127.0.0.1:9000"},
		{Type: MsgJoinAck, From: "d2", Addr: "127.0.0.1:9001"},
		{Type: MsgDigest, From: "d1", ShardCount: 4, Digests: []uint64{0, 1, 1<<64 - 1, 42}},
		{Type: MsgDiff, From: "d2", Shards: []int{0, 3, MaxShardCount - 1}, Metas: []crp.NodeMeta{
			{Node: "n1", Origin: "d1", Version: 2},
			{Node: "n2", Origin: "d2", Version: 9, Deleted: true},
		}},
		{Type: MsgDelta, From: "d1", TTL: 3, Deltas: []crp.NodeDelta{
			{NodeMeta: crp.NodeMeta{Node: "n1", Origin: "d1", Version: 1}, Probes: []crp.Probe{
				{At: thresholdAt, Replicas: []crp.ReplicaID{"r1", "r2"}},
				{At: thresholdAt.Add(time.Second), Replicas: nil},
			}},
			{NodeMeta: crp.NodeMeta{Node: "n2", Origin: "d2", Version: 5, Deleted: true}, DeletedAt: thresholdAt},
		}},
		{Type: MsgPull, From: "d2", Nodes: []string{"n1", "n2"}},
		{Type: MsgDelta, From: "d1", TTL: 1, Deltas: []crp.NodeDelta{
			{NodeMeta: crp.NodeMeta{Node: "n3", Version: 1}},
		}},
		// Namespaced replica IDs ride inside the ID strings ("ns!replica"),
		// so a multi-CDN deployment needs no frame change — but the corpus
		// must cover them, including one at the exact MaxIDBytes boundary.
		{Type: MsgDelta, From: "d1", TTL: 2, Deltas: []crp.NodeDelta{
			{NodeMeta: crp.NodeMeta{Node: "n4", Origin: "d1", Version: 3}, Probes: []crp.Probe{
				{At: thresholdAt, Replicas: []crp.ReplicaID{
					"cdnA!r1", "cdnB!r1",
					crp.ReplicaID("cdnA!" + strings.Repeat("r", MaxIDBytes-len("cdnA!"))),
				}},
			}},
		}},
	}
}

// asJSON canonicalizes a decoded Msg for comparison: JSON marshaling
// sidesteps time.Time's internal-representation differences (wall vs
// monotonic, location pointers) while still comparing every wire-visible
// field.
func asJSON(t *testing.T, m Msg) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestBinaryPeerMsgRoundTrip pins decode(encode(x)) == x on every message
// type.
func TestBinaryPeerMsgRoundTrip(t *testing.T) {
	for _, m := range sampleMsgs() {
		raw, err := encodePeerMsg(&m)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Type, err)
		}
		if raw[0] != binMagic || raw[1] != binVersion {
			t.Fatalf("%s: frame opens 0x%02x 0x%02x, want magic and version", m.Type, raw[0], raw[1])
		}
		got, err := decodePeerMsg(raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Type, err)
		}
		if asJSON(t, got) != asJSON(t, m) {
			t.Fatalf("%s: round trip mismatch:\n got %s\nwant %s", m.Type, asJSON(t, got), asJSON(t, m))
		}
		// Canonical encoding: re-encoding the decoded message is
		// byte-identical (the determinism the bench rerun gate relies on).
		again, err := encodePeerMsg(&got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", m.Type, err)
		}
		if !bytes.Equal(raw, again) {
			t.Fatalf("%s: re-encode not byte-identical", m.Type)
		}
	}
}

// frame hand-builds one current-version datagram without going through
// encodePeerMsg, so a row carries exactly the bytes under test whatever the
// encoder would do with them. rest writes everything after addr: ttl,
// shardCount, then the five collections.
func frame(code byte, from, addr string, rest func(e *binwire.Enc)) []byte {
	var e binwire.Enc
	e.U8(binMagic)
	e.U8(binVersion)
	e.U8(code)
	e.String(from)
	e.String(addr)
	rest(&e)
	return append([]byte(nil), e.Bytes()...)
}

// empties writes n zero uvarints: a zero ttl or shardCount, or an empty
// collection.
func empties(e *binwire.Enc, n int) {
	for ; n > 0; n-- {
		e.Uvarint(0)
	}
}

// TestBinaryPeerMsgBounds is the boundary table for the gossip decoder:
// exact-limit accept and limit+1 reject at every declared count and size,
// plus the frame-level rejections (version, type code, truncation, trailing
// bytes).
func TestBinaryPeerMsgBounds(t *testing.T) {
	decode := func(m *Msg) error {
		raw, err := encodePeerMsg(m)
		if err != nil {
			return err
		}
		_, err = decodePeerMsg(raw)
		return err
	}
	base := func() Msg { return Msg{Type: MsgDigest, From: "d1"} }

	t.Run("from at limit", func(t *testing.T) {
		m := base()
		m.From = strings.Repeat("x", MaxIDBytes)
		if err := decode(&m); err != nil {
			t.Fatalf("MaxIDBytes from rejected: %v", err)
		}
	})
	t.Run("from over limit", func(t *testing.T) {
		m := base()
		m.From = strings.Repeat("x", MaxIDBytes+1)
		if err := decode(&m); err == nil {
			t.Fatal("oversized from accepted")
		}
	})
	t.Run("ttl at limit", func(t *testing.T) {
		m := Msg{Type: MsgDelta, From: "d1", TTL: MaxTTL}
		if err := decode(&m); err != nil {
			t.Fatalf("MaxTTL rejected: %v", err)
		}
	})
	t.Run("ttl over limit", func(t *testing.T) {
		m := Msg{Type: MsgDelta, From: "d1", TTL: MaxTTL + 1}
		if err := decode(&m); err == nil {
			t.Fatal("TTL over limit accepted")
		}
	})
	t.Run("digests at limit", func(t *testing.T) {
		m := base()
		m.ShardCount = MaxShardCount
		m.Digests = make([]uint64, MaxShardCount)
		if err := decode(&m); err != nil {
			t.Fatalf("MaxShardCount digests rejected: %v", err)
		}
	})
	t.Run("digests over limit", func(t *testing.T) {
		m := base()
		m.Digests = make([]uint64, MaxShardCount+1)
		if err := decode(&m); err == nil {
			t.Fatal("digest vector over limit accepted")
		}
	})
	t.Run("shard index over limit", func(t *testing.T) {
		m := Msg{Type: MsgDiff, From: "d1", Shards: []int{MaxShardCount}}
		if err := decode(&m); err == nil {
			t.Fatal("shard index at MaxShardCount accepted (valid range is [0, MaxShardCount))")
		}
	})
	t.Run("nodes at limit", func(t *testing.T) {
		m := Msg{Type: MsgPull, From: "d1", Nodes: make([]string, MaxPullNodes)}
		for i := range m.Nodes {
			m.Nodes[i] = fmt.Sprintf("n%d", i)
		}
		if err := decode(&m); err != nil {
			t.Fatalf("MaxPullNodes rejected: %v", err)
		}
	})
	t.Run("nodes over limit", func(t *testing.T) {
		m := Msg{Type: MsgPull, From: "d1", Nodes: make([]string, MaxPullNodes+1)}
		for i := range m.Nodes {
			m.Nodes[i] = fmt.Sprintf("n%d", i)
		}
		if err := decode(&m); err == nil {
			t.Fatal("pull node list over limit accepted")
		}
	})
	t.Run("replicas per probe at limit", func(t *testing.T) {
		reps := make([]crp.ReplicaID, MaxReplicasPerProbe)
		for i := range reps {
			reps[i] = crp.ReplicaID(fmt.Sprintf("r%d", i))
		}
		m := Msg{Type: MsgDelta, From: "d1", TTL: 1, Deltas: []crp.NodeDelta{{
			NodeMeta: crp.NodeMeta{Node: "n1", Version: 1},
			Probes:   []crp.Probe{{At: time.Unix(0, 0).UTC(), Replicas: reps}},
		}}}
		if err := decode(&m); err != nil {
			t.Fatalf("MaxReplicasPerProbe rejected: %v", err)
		}
	})
	t.Run("replicas per probe over limit", func(t *testing.T) {
		reps := make([]crp.ReplicaID, MaxReplicasPerProbe+1)
		for i := range reps {
			reps[i] = crp.ReplicaID(fmt.Sprintf("r%d", i))
		}
		m := Msg{Type: MsgDelta, From: "d1", TTL: 1, Deltas: []crp.NodeDelta{{
			NodeMeta: crp.NodeMeta{Node: "n1", Version: 1},
			Probes:   []crp.Probe{{At: time.Unix(0, 0).UTC(), Replicas: reps}},
		}}}
		if err := decode(&m); err == nil {
			t.Fatal("replica set over limit accepted")
		}
	})
	t.Run("unknown version", func(t *testing.T) {
		raw, err := encodePeerMsg(&Msg{Type: MsgJoin, From: "d1"})
		if err != nil {
			t.Fatal(err)
		}
		raw[1] = binVersion + 1
		if _, err := decodePeerMsg(raw); err == nil {
			t.Fatal("unknown frame version accepted")
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		raw, err := encodePeerMsg(&Msg{Type: MsgJoin, From: "d1"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodePeerMsg(append(raw, 0)); err == nil {
			t.Fatal("trailing bytes accepted")
		}
	})
	t.Run("every truncation fails cleanly", func(t *testing.T) {
		for _, m := range sampleMsgs() {
			raw, err := encodePeerMsg(&m)
			if err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut < len(raw); cut++ {
				if _, err := decodePeerMsg(raw[:cut]); err == nil {
					t.Fatalf("%s truncated to %d/%d bytes accepted", m.Type, cut, len(raw))
				}
			}
		}
	})

	runFrameCases(t, []frameCase{
		{"unknown type code", []byte{binMagic, binVersion, 99}, "unknown message type"},
		{"deltas binary count over limit", frame(2, "d1", "", func(e *binwire.Enc) {
			// Rejected by the ceiling before the remaining-bytes check applies.
			empties(e, 5)
			e.Uvarint(MaxDeltas + 1)
		}), "deltas"},
	})
}

// frameCase is one hand-built datagram and the decoder's verdict on it: an
// error containing wantErr, or acceptance when wantErr is empty.
type frameCase struct {
	name    string
	raw     []byte
	wantErr string
}

func runFrameCases(t *testing.T, cases []frameCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodePeerMsg(tc.raw)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("accepted, want error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestDecodePeerMsgBounds holds one failing frame for every check in
// checkPeerMsg and checkDelta, beside a valid frame of each shape. The frames
// are hand-built: values encodePeerMsg would pass through today but is free
// to refuse tomorrow, so the decoder's rejection is pinned on bytes. A
// "negative" field is a uvarint that would wrap negative as an int.
func TestDecodePeerMsgBounds(t *testing.T) {
	longID := strings.Repeat("x", MaxIDBytes+1)
	const wraps = 1<<64 - 1
	empty := func(e *binwire.Enc) { empties(e, 7) }
	meta := func(e *binwire.Enc, node, origin string) {
		e.String(node)
		e.String(origin)
		e.Uvarint(1) // version
		e.U8(0)      // flags
	}
	// Frame bodies with one field set to v and every other field empty.
	type body = func(e *binwire.Enc)
	ttl := func(v uint64) body {
		return func(e *binwire.Enc) { e.Uvarint(v); empties(e, 6) }
	}
	shardCount := func(v uint64) body {
		return func(e *binwire.Enc) { e.Uvarint(0); e.Uvarint(v); empties(e, 5) }
	}
	shardIndex := func(v uint64) body {
		return func(e *binwire.Enc) { empties(e, 3); e.Uvarint(1); e.Uvarint(v); empties(e, 3) }
	}
	runFrameCases(t, []frameCase{
		{"valid join", frame(0, "d1", "127.0.0.1:9000", empty), ""},
		{"valid digest", frame(3, "d1", "", func(e *binwire.Enc) {
			e.Uvarint(0)
			e.Uvarint(4)
			e.Uvarint(4)
			for w := uint64(1); w <= 4; w++ {
				e.U64(w)
			}
			empties(e, 4)
		}), ""},
		{"valid delta", frame(2, "d1", "", func(e *binwire.Enc) {
			e.Uvarint(3)
			empties(e, 4)
			e.Uvarint(1)
			meta(e, "n1", "d1")
			empties(e, 2) // no probes, no pull nodes
		}), ""},
		{"valid pull", frame(5, "d1", "", func(e *binwire.Enc) {
			empties(e, 6)
			e.Uvarint(2)
			e.String("n1")
			e.String("n2")
		}), ""},
		{"empty payload", nil, "bad message"},
		{"oversized payload", make([]byte, MaxMsgSize+1), "message too large"},
		{"unknown type", frame(99, "d1", "", empty), "unknown message type"},
		{"missing from", frame(3, "", "", empty), "from is required"},
		{"nul in from", frame(0, "a\x00b", "", empty), "NUL"},
		{"invalid utf8 in from", frame(0, "a\xffb", "", empty), "UTF-8"},
		{"oversized from", frame(0, longID, "", empty), "from"},
		{"oversized addr", frame(0, "d1", longID, empty), "addr"},
		{"huge ttl", frame(2, "d1", "", ttl(MaxTTL+1)), "ttl"},
		{"negative ttl", frame(2, "d1", "", ttl(wraps)), "ttl"},
		{"huge shard count", frame(3, "d1", "", shardCount(MaxShardCount+1)), "shardCount"},
		{"negative shard count", frame(3, "d1", "", shardCount(wraps)), "shardCount"},
		{"huge shard index", frame(4, "d1", "", shardIndex(MaxShardCount)), "shards[0]"},
		{"negative shard index", frame(4, "d1", "", shardIndex(wraps)), "shards[0]"},
		{"empty meta node", frame(4, "d1", "", func(e *binwire.Enc) {
			empties(e, 4)
			e.Uvarint(1)
			meta(e, "", "d1")
			empties(e, 2)
		}), "empty node"},
		{"oversized meta node", frame(4, "d1", "", func(e *binwire.Enc) {
			empties(e, 4)
			e.Uvarint(1)
			meta(e, longID, "d1")
			empties(e, 2)
		}), "metas[0]"},
		{"empty delta node", frame(2, "d1", "", func(e *binwire.Enc) {
			empties(e, 5)
			e.Uvarint(1)
			meta(e, "", "d1")
			empties(e, 2)
		}), "empty node"},
		{"oversized delta origin", frame(2, "d1", "", func(e *binwire.Enc) {
			empties(e, 5)
			e.Uvarint(1)
			meta(e, "n", longID)
			empties(e, 2)
		}), "deltas[0]"},
		{"empty pull node", frame(5, "d1", "", func(e *binwire.Enc) {
			// Two nodes: the count check wants two bytes per entry.
			empties(e, 6)
			e.Uvarint(2)
			e.String("")
			e.String("n1")
		}), "nodes[0] is empty"},
		{"too many pull nodes", frame(5, "d1", "", func(e *binwire.Enc) {
			empties(e, 6)
			e.Uvarint(MaxPullNodes + 1)
			for i := 0; i <= MaxPullNodes; i++ {
				e.String("n")
			}
		}), "nodes"},
	})
}

// countingConn counts the datagrams an engine writes.
type countingConn struct {
	net.PacketConn
	writes int
}

func (c *countingConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	c.writes++
	return c.PacketConn.WriteTo(b, addr)
}

// TestForeignDatagramsAreInert pins the link's whole compatibility story: a
// datagram that is not a whole current-version frame — a JSON object, a v1
// frame, a v2 frame cut short anywhere — bumps peering.bad_msgs once and
// does nothing else. Every input here would
// change state if it were accepted or misparsed: the digest is from a known
// peer with differing digests (a diff reply), the joins would register a peer
// and send an ack.
func TestForeignDatagramsAreInert(t *testing.T) {
	mesh := NewMemMesh()
	svc := crp.NewServiceWithStore(crp.StoreConfig{Shards: 4})
	p, err := New(Config{
		Self: "inert-self", Addr: "inert-self", Service: svc,
		Registry: obs.NewRegistry(), Resolve: mesh.Resolve, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	conn := &countingConn{PacketConn: mesh.Conn("inert-self")}
	p.Attach(conn)
	if err := p.AddPeer("d1", "d1"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Observe("n0", time.Unix(1, 0), "r1"); err != nil {
		t.Fatal(err)
	}

	inert := func(what string, raw []byte) {
		t.Helper()
		before, digests := p.Status(), svc.ShardDigests()
		p.HandleDatagram(raw, memAddr("d1"))
		after := p.Status()
		want := before
		want.Stats.Msgs++
		want.Stats.BadMsgs++
		if !reflect.DeepEqual(after, want) {
			t.Fatalf("%s: engine state moved beyond msgs+1, bad_msgs+1:\n got %+v\nwant %+v", what, after, want)
		}
		if !reflect.DeepEqual(svc.ShardDigests(), digests) {
			t.Fatalf("%s: store changed", what)
		}
		if conn.writes != 0 {
			t.Fatalf("%s: engine sent %d datagrams", what, conn.writes)
		}
	}

	inert("JSON digest", []byte(`{"type":"digest","from":"d1","shardCount":4,"digests":[1,2,3,4]}`))
	inert("JSON join", []byte(`{"type":"join","from":"d9","addr":"d9"}`))
	// The v1 layout: a codec-advertisement string between addr and ttl.
	var v1 binwire.Enc
	v1.U8(binMagic)
	v1.U8(1)
	v1.U8(0) // join
	v1.String("d9")
	v1.String("d9")
	v1.String("bin1")
	empties(&v1, 7)
	inert("v1 join", v1.Bytes())
	for _, m := range sampleMsgs() {
		raw, err := encodePeerMsg(&m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(raw); cut++ {
			inert(fmt.Sprintf("%s cut to %d/%d bytes", m.Type, cut, len(raw)), raw[:cut])
		}
	}
}

// TestWorstCaseDigestFitsTheWire pins the MaxShardCount sizing argument: the
// worst-case digest message at the full shard width — maximal sender identity
// and address, one fixed 8-byte word per shard — must encode under MaxMsgSize.
func TestWorstCaseDigestFitsTheWire(t *testing.T) {
	digests := make([]uint64, MaxShardCount)
	for i := range digests {
		digests[i] = 1<<64 - 1
	}
	m := Msg{
		Type:       MsgDigest,
		From:       strings.Repeat("x", MaxIDBytes),
		Addr:       strings.Repeat("y", MaxIDBytes),
		ShardCount: MaxShardCount,
		Digests:    digests,
	}
	raw, err := encodePeerMsg(&m)
	if err != nil {
		t.Fatalf("worst-case digest unencodable: %v", err)
	}
	if len(raw) > MaxMsgSize {
		t.Fatalf("worst-case digest is %d bytes, exceeds MaxMsgSize %d", len(raw), MaxMsgSize)
	}
}

// TestEncodeRejectsUnsendable is the 65508..65536-gap regression: a message
// whose encoding lands between the old 64 KiB bound and the UDP payload
// ceiling used to pass the encoder's size check and then fail at WriteTo.
// Now the encoder rejects it and nothing reaches the socket.
func TestEncodeRejectsUnsendable(t *testing.T) {
	// pullOfSize builds a pull message whose frame is exactly size bytes:
	// 62-byte entries up to just below the target, then one entry sized to
	// land on it (short enough for a one-byte length prefix).
	pullOfSize := func(size int) Msg {
		m := Msg{Type: MsgPull, From: "d1"}
		for {
			raw, err := encodePeerMsg(&m)
			if err != nil {
				t.Fatal(err)
			}
			if rest := size - len(raw); rest < 120 {
				m.Nodes = append(m.Nodes, strings.Repeat("q", rest-1))
				return m
			}
			m.Nodes = append(m.Nodes, fmt.Sprintf("%s%04d", strings.Repeat("n", 57), len(m.Nodes)))
		}
	}
	fits := pullOfSize(MaxMsgSize)
	if raw, err := encodePeerMsg(&fits); err != nil || len(raw) != MaxMsgSize {
		t.Fatalf("setup: a frame built to MaxMsgSize encoded to %d bytes, err %v", len(raw), err)
	}
	m := pullOfSize(65512)
	if _, err := encodePeerMsg(&m); err == nil {
		t.Fatal("encoder accepted a 65512-byte message no UDP datagram can carry")
	}

	// Engine-level: the send path must drop it (send_errors) and write
	// nothing to the socket.
	mesh := NewMemMesh()
	svc := crp.NewServiceWithStore(crp.StoreConfig{Shards: 4})
	p, err := New(Config{
		Self: "gap-self", Addr: "gap-self", Service: svc,
		Registry: obs.NewRegistry(), Resolve: mesh.Resolve,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Attach(mesh.Conn("gap-self"))
	peerConn := mesh.Conn("gap-peer") // register before sending: MemMesh drops to unknown addrs
	if _, err := p.send(memAddr("gap-peer"), m); err == nil {
		t.Fatal("send accepted an unsendable message")
	}
	if got := p.Stats().SendErrors; got != 1 {
		t.Fatalf("send_errors = %d, want 1", got)
	}
	buf := make([]byte, MaxMsgSize+1)
	if n, _, err := peerConn.ReadFrom(buf); err == nil {
		t.Fatalf("a %d-byte datagram reached the socket", n)
	}
}

// TestOversizedDatagramDropped is the read-side half of the truncation
// regression: a datagram larger than MaxMsgSize (only observable because the
// read buffer is one byte larger than the bound) is counted as oversize and
// never reaches a decoder.
func TestOversizedDatagramDropped(t *testing.T) {
	mesh := NewMemMesh()
	svc := crp.NewServiceWithStore(crp.StoreConfig{Shards: 4})
	p, err := New(Config{
		Self: "ovr-self", Addr: "ovr-self", Service: svc,
		Registry: obs.NewRegistry(), Resolve: mesh.Resolve,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Attach(mesh.Conn("ovr-self"))

	// Simulate what the read loop sees for a too-large datagram: its
	// MaxMsgSize+1 buffer filled completely.
	huge := make([]byte, MaxMsgSize+1)
	copy(huge, []byte(`{"type":"join","from":"ovr-peer"`)) // a truncated prefix of a valid message
	p.HandleDatagram(huge, memAddr("ovr-peer"))
	st := p.Stats()
	if st.OversizeMsgs != 1 {
		t.Fatalf("oversize_msgs = %d, want 1", st.OversizeMsgs)
	}
	if st.BadMsgs != 0 {
		t.Fatalf("bad_msgs = %d, want 0 — truncated bytes must not reach the decoder", st.BadMsgs)
	}
	if len(p.Status().Peers) != 0 {
		t.Fatal("truncated join registered a peer")
	}
}

// TestSendDeltasPacksToBudget pins the size-driven batching: entries small
// enough to share a datagram are batched together, from the first datagram a
// peer is ever sent, and every emitted datagram respects MaxMsgSize.
func TestSendDeltasPacksToBudget(t *testing.T) {
	mesh := NewMemMesh()
	svc := crp.NewServiceWithStore(crp.StoreConfig{Shards: 4})
	p, err := New(Config{
		Self: "pack-self", Addr: "pack-self", Service: svc,
		Registry: obs.NewRegistry(), Resolve: mesh.Resolve,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Attach(mesh.Conn("pack-self"))
	conn := mesh.Conn("pack-peer") // register before sending: MemMesh drops to unknown addrs
	if err := p.AddPeer("pack-peer", "pack-peer"); err != nil {
		t.Fatal(err)
	}

	nodes := make([]crp.NodeID, 600)
	for i := range nodes {
		nodes[i] = crp.NodeID(fmt.Sprintf("node-%04d", i))
		if _, err := svc.ApplyDelta(crp.NodeDelta{NodeMeta: crp.NodeMeta{Node: nodes[i], Origin: "pack-self", Version: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	p.pushDeltas(p.peerByID("pack-peer"), nodes)

	buf := make([]byte, MaxMsgSize+1)
	msgs, total := 0, 0
	for {
		n, _, err := conn.ReadFrom(buf)
		if err != nil {
			break
		}
		if n > MaxMsgSize {
			t.Fatalf("packed datagram is %d bytes, exceeds MaxMsgSize", n)
		}
		m, err := decodePeerMsg(buf[:n])
		if err != nil {
			t.Fatalf("packed datagram undecodable: %v", err)
		}
		msgs++
		total += len(m.Deltas)
	}
	if total != 600 {
		t.Fatalf("delivered %d deltas, want 600", total)
	}
	if msgs != 1 {
		// 600 minimal entries are ~11 KB — they must share one datagram.
		t.Fatalf("600 small deltas used %d datagrams, want 1", msgs)
	}
}

// fuzzSeeds is the FuzzDecodeBinaryPeerMsg seed set: every message type's
// valid encoding, then hand-built malformed datagrams that each pin a
// distinct decoder rejection path.
func fuzzSeeds(t testing.TB) [][]byte {
	var valid [][]byte
	for _, m := range sampleMsgs() {
		raw, err := encodePeerMsg(&m)
		if err != nil {
			t.Fatal(err)
		}
		valid = append(valid, raw)
	}
	out := append([][]byte(nil), valid...)
	for _, raw := range valid {
		out = append(out, raw[:len(raw)/2])                       // truncated mid-structure
		out = append(out, append(append([]byte(nil), raw...), 0)) // trailing byte
	}
	bad := append([]byte(nil), valid[0]...)
	bad[1] = binVersion + 1 // unsupported version
	out = append(out, bad)
	out = append(out, []byte{binMagic, binVersion, 99}) // unknown type code
	return out
}

// FuzzDecodeBinaryPeerMsg fuzzes the gossip decoder: never panic, never
// accept an out-of-bounds message, and everything accepted re-encodes
// canonically and survives the full datagram handler. The checked-in corpus
// under testdata/fuzz is fuzzSeeds (regenerate with REGEN_FUZZ_CORPUS=1).
func FuzzDecodeBinaryPeerMsg(f *testing.F) {
	for _, raw := range fuzzSeeds(f) {
		f.Add(raw)
	}

	mesh := NewMemMesh()
	svc := crp.NewServiceWithStore(crp.StoreConfig{Shards: 4})
	p, err := New(Config{
		Self: "binfuzz-self", Addr: "binfuzz-self", Service: svc,
		Registry: obs.NewRegistry(), Resolve: mesh.Resolve, Seed: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	p.Attach(mesh.Conn("binfuzz-self"))
	if err := p.AddPeer("binfuzz-peer", "binfuzz-peer"); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodePeerMsg(raw)
		if err != nil {
			p.HandleDatagram(raw, memAddr("binfuzz-peer")) // must not panic on rejects either
			return
		}
		if _, ok := binTypeCodes[m.Type]; !ok || len(m.From) > MaxIDBytes || m.TTL > MaxTTL || m.ShardCount > MaxShardCount ||
			len(m.Digests) > MaxShardCount || len(m.Deltas) > MaxDeltas ||
			len(m.Metas) > MaxMetas || len(m.Nodes) > MaxPullNodes {
			t.Fatalf("decoder accepted out-of-bounds message: %+v", m)
		}
		// Accepted messages re-encode canonically: encode is total on
		// decoder output and a second decode agrees.
		re, err := encodePeerMsg(&m)
		if err != nil {
			t.Fatalf("decoded message unencodable: %v", err)
		}
		m2, err := decodePeerMsg(re)
		if err != nil {
			t.Fatalf("re-encoded message undecodable: %v", err)
		}
		if asJSON(t, m) != asJSON(t, m2) {
			t.Fatalf("re-encode round trip drifted")
		}
		p.HandleDatagram(raw, memAddr("binfuzz-peer"))
	})
}

// TestGenerateFuzzCorpus writes the checked-in seed corpus for
// FuzzDecodeBinaryPeerMsg.
func TestGenerateFuzzCorpus(t *testing.T) {
	fuzzcorpus.Write(t, "FuzzDecodeBinaryPeerMsg", fuzzSeeds(t))
}
