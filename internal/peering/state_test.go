package peering

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/crp"
	"repro/internal/fuzzcorpus"
	"repro/internal/obs"
)

// stateService is a small store with records and a multi-probe window,
// written under origin "d1".
func stateService(t testing.TB, shape crp.StoreConfig) *crp.Service {
	t.Helper()
	svc := crp.NewServiceWithStore(shape, crp.WithWindow(10))
	svc.SetOrigin("d1")
	now := time.Date(2026, 8, 8, 10, 20, 30, 0, time.UTC)
	for i, node := range []crp.NodeID{"n1", "n2", "n1", "n3", "cdnA-client"} {
		if err := svc.Observe(node, now.Add(time.Duration(i)*time.Second), "r1", crp.ReplicaID("cdnA!"+node)); err != nil {
			t.Fatal(err)
		}
	}
	return svc
}

// writeState is WriteState into memory, failing t on a write error or a
// record left out.
func writeState(t testing.TB, svc *crp.Service) []byte {
	t.Helper()
	var buf bytes.Buffer
	skipped, err := WriteState(&buf, svc)
	if err != nil || skipped != nil {
		t.Fatalf("WriteState: err %v, skipped %v", err, skipped)
	}
	return buf.Bytes()
}

// stateFrame wraps one encoded message as a state-file frame.
func stateFrame(t testing.TB, m Msg) []byte {
	t.Helper()
	raw, err := encodePeerMsg(&m)
	if err != nil {
		t.Fatal(err)
	}
	return asStateFrame(raw)
}

// asStateFrame wraps one datagram as a state-file frame.
func asStateFrame(raw []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(raw))), raw...)
}

func TestStateRoundTrip(t *testing.T) {
	for _, shape := range []crp.StoreConfig{{Shards: 1}, {Shards: 8}} {
		src := stateService(t, shape)
		dst := crp.NewServiceWithStore(shape, crp.WithWindow(10))
		if err := ReadState(writeState(t, src), dst); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(src.ShardDigests(), dst.ShardDigests()) {
			t.Fatalf("shards %d: restored digests differ", shape.Shards)
		}
		if want, got := src.Nodes(), dst.Nodes(); !reflect.DeepEqual(want, got) {
			t.Fatalf("shards %d: restored nodes %v, want %v", shape.Shards, got, want)
		}
	}
}

// TestWriteStateSkipsUnwritableRecord: a record no delta can carry — more
// probes than one delta holds (an unbounded -window 0 tracker), or more bytes
// than one message holds — is left out of the state file and named, and every
// record beside it is written and restores.
func TestWriteStateSkipsUnwritableRecord(t *testing.T) {
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	long := crp.ReplicaID(strings.Repeat("r", MaxIDBytes))
	wide := make([]crp.ReplicaID, MaxReplicasPerProbe)
	for i := range wide {
		wide[i] = long[:len(long)-2] + crp.ReplicaID(fmt.Sprintf("%02d", i))
	}
	cases := map[string]func(*crp.Service) error{
		"probes": func(svc *crp.Service) error {
			for i := 0; i <= MaxProbesPerDelta; i++ {
				if err := svc.Observe("huge", base.Add(time.Duration(i)*time.Second), "r1"); err != nil {
					return err
				}
			}
			return nil
		},
		"bytes": func(svc *crp.Service) error {
			for i := 0; i < 5; i++ {
				if err := svc.Observe("huge", base.Add(time.Duration(i)*time.Second), wide...); err != nil {
					return err
				}
			}
			return nil
		},
	}
	for name, fill := range cases {
		t.Run(name, func(t *testing.T) {
			src := crp.NewServiceWithStore(crp.StoreConfig{Shards: 1}) // -window 0
			src.SetOrigin("d1")
			for _, node := range []crp.NodeID{"n1", "n2"} {
				if err := src.Observe(node, base, "r1"); err != nil {
					t.Fatal(err)
				}
			}
			if err := fill(src); err != nil {
				t.Fatal(err)
			}
			if err := src.Observe("n3", base, "r2"); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			skipped, err := WriteState(&buf, src)
			if err != nil {
				t.Fatal(err)
			}
			if skipped == nil || !strings.Contains(skipped.Error(), `"huge"`) {
				t.Fatalf("skipped = %v, want one naming node \"huge\"", skipped)
			}
			dst := crp.NewServiceWithStore(crp.StoreConfig{Shards: 1})
			if err := ReadState(buf.Bytes(), dst); err != nil {
				t.Fatal(err)
			}
			if _, ok := dst.ExportDelta("huge"); ok {
				t.Fatal("the unwritable record was restored")
			}
			for _, node := range []crp.NodeID{"n1", "n2", "n3"} {
				want, _ := src.ExportDelta(node)
				got, ok := dst.ExportDelta(node)
				if !ok || !reflect.DeepEqual(got.NodeMeta, want.NodeMeta) || len(got.Probes) != len(want.Probes) {
					t.Fatalf("record %s restored as %+v, %v; want %+v", node, got, ok, want)
				}
			}
		})
	}
}

// TestLinkSkipsUnsendableRecord: the link shares the packer's rule, so a
// record no delta can carry costs one send error and is left out, and the
// records batched beside it still replicate.
func TestLinkSkipsUnsendableRecord(t *testing.T) {
	tm := newTestMesh(t, 2, crp.StoreConfig{Shards: 1})
	tm.fullMesh(t)
	wide := make([]crp.ReplicaID, MaxReplicasPerProbe+1)
	for i := range wide {
		wide[i] = crp.ReplicaID(fmt.Sprintf("r%d", i))
	}
	for node, reps := range map[crp.NodeID][]crp.ReplicaID{"a": {"r1"}, "wide": wide, "z": {"r2"}} {
		if err := tm.svcs[0].Observe(node, tm.clock, reps...); err != nil {
			t.Fatal(err)
		}
	}
	tm.tickAll()
	tm.pump()
	for _, node := range []crp.NodeID{"a", "z"} {
		if _, ok := tm.svcs[1].ExportDelta(node); !ok {
			t.Fatalf("record %s did not replicate beside the unsendable one", node)
		}
	}
	if _, ok := tm.svcs[1].ExportDelta("wide"); ok {
		t.Fatal("the unsendable record replicated")
	}
	if got := tm.engines[0].Stats().SendErrors; got == 0 {
		t.Fatal("the skipped record counted no send error")
	}
}

// stateProbes is a one-probe window for hand-built state frames.
var stateProbes = []crp.Probe{{At: time.Unix(1, 0), Replicas: []crp.ReplicaID{"r1"}}}

// TestReadStateRejectsMalformed is the reader's input table: the state file
// comes from outside the program, so each malformation fails the restore
// with an error saying what was wrong.
func TestReadStateRejectsMalformed(t *testing.T) {
	valid := writeState(t, stateService(t, crp.StoreConfig{Shards: 1}))
	cases := []struct {
		name, raw, want string
	}{
		{"parent JSON snapshot", `{"version":1,"nodes":[{"node":"n1","probes":[]}]}` + "\n", "JSON snapshot"},
		{"truncated length prefix", string(valid) + "\x80", "frame 1: binwire: message truncated"},
		{"truncated frame", string(valid[:len(valid)-1]), "frame 0: binwire: message truncated"},
		{"frame missing after its length", string(binary.AppendUvarint(nil, 10)), "message truncated"},
		{"length over MaxMsgSize", string(binary.AppendUvarint(nil, MaxMsgSize+1)), "exceeds the 65507-byte limit"},
		{"non-delta frame", string(stateFrame(t, Msg{Type: MsgDigest, From: "d1", ShardCount: 1, Digests: []uint64{7}})), `"digest" message`},
		{"delta checkDelta rejects", string(stateFrame(t, Msg{Type: MsgDelta, From: "d1", Deltas: []crp.NodeDelta{
			{NodeMeta: crp.NodeMeta{Node: "", Origin: "d1", Version: 1}},
		}})), "empty node ID"},
		{"zero-version delta", string(stateFrame(t, Msg{Type: MsgDelta, From: "d1", Deltas: []crp.NodeDelta{
			{NodeMeta: crp.NodeMeta{Node: "n1", Origin: "d1"}, Probes: stateProbes},
		}})), "zero version"},
		{"delta with no probes", string(stateFrame(t, Msg{Type: MsgDelta, From: "d1", Deltas: []crp.NodeDelta{
			{NodeMeta: crp.NodeMeta{Node: "n1", Origin: "d1", Version: 1}},
		}})), "deltas[0] has no probes"},
		{"probe with no replicas", string(stateFrame(t, Msg{Type: MsgDelta, From: "d1", Deltas: []crp.NodeDelta{
			{NodeMeta: crp.NodeMeta{Node: "n1", Origin: "d1", Version: 1}, Probes: []crp.Probe{{At: time.Unix(1, 0)}}},
		}})), "deltas[0].probes[0] has no replicas"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := ReadState([]byte(c.raw), crp.NewService())
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("ReadState err = %v, want one containing %q", err, c.want)
			}
		})
	}
}

// TestRestartedMemberRejoinsAsReplica rebuilds one member of a converged
// 3-daemon mesh from its state file: fresh service, ReadState, new engine.
// It has no rumor to send, its digests equal its peers' at once, and after
// fresh ingest the mesh reconverges.
func TestRestartedMemberRejoinsAsReplica(t *testing.T) {
	shape := crp.StoreConfig{Shards: 8}
	tm := newTestMesh(t, 3, shape)
	tm.fullMesh(t)
	for i, svc := range tm.svcs {
		for k := 0; k < 4; k++ {
			node := crp.NodeID(string(rune('a'+i)) + string(rune('0'+k)))
			if err := svc.Observe(node, time.Unix(int64(k), 0), "r1", crp.ReplicaID(node)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tm.svcs[1].Observe("a0", time.Unix(9, 0), "r2"); err != nil { // an overwrite by a non-origin
		t.Fatal(err)
	}
	tm.converge(t, 20)

	svc := crp.NewServiceWithStore(shape, crp.WithWindow(10))
	if err := ReadState(writeState(t, tm.svcs[2]), svc); err != nil {
		t.Fatal(err)
	}
	self := tm.engines[2].cfg.Self
	p, err := New(Config{
		Self: self, Addr: self, Service: svc, Seed: 102,
		Now: func() time.Time { return tm.clock }, Resolve: tm.mesh.Resolve, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Attach(tm.mesh.Conn(self))
	for _, q := range tm.engines[:2] {
		if err := p.AddPeer(q.cfg.Self, q.cfg.Addr); err != nil {
			t.Fatal(err)
		}
	}
	tm.svcs[2], tm.engines[2] = svc, p

	if st := p.Status(); st.PendingRumors != 0 {
		t.Fatalf("restored member queued %d rumors", st.PendingRumors)
	}
	if !tm.converged() {
		t.Fatal("restored member's digests differ from its peers'")
	}
	tm.clock = tm.clock.Add(time.Second)
	p.Tick(tm.clock)
	tm.pump()
	if sent := p.Stats().DeltasSent; sent != 0 {
		t.Fatalf("restored member sent %d deltas in its first round", sent)
	}

	for i, svc := range []*crp.Service{tm.svcs[2], tm.svcs[0]} {
		if err := svc.Observe(crp.NodeID("fresh-"+string(rune('0'+i))), tm.clock, "r2"); err != nil {
			t.Fatal(err)
		}
	}
	if err := tm.svcs[2].Observe("b1", tm.clock, "r3"); err != nil {
		t.Fatal(err)
	}
	tm.converge(t, 50)
}

// stateSeeds is the FuzzReadState seed set: a valid state file, its
// truncations, and one file per rejection of the reader's malformed-input
// table.
func stateSeeds(t testing.TB) [][]byte {
	raw := writeState(t, stateService(t, crp.StoreConfig{Shards: 1}))
	seeds := [][]byte{
		raw,
		raw[:len(raw)/2],
		append(append([]byte(nil), raw...), 0x80),
		nil,
		[]byte(`{"version":1,"nodes":[]}`),
		binary.AppendUvarint(nil, MaxMsgSize+1),
		stateFrame(t, Msg{Type: MsgPull, From: "d1", Nodes: []string{"n1"}}),
		stateFrame(t, Msg{Type: MsgDelta, From: "d1", Deltas: []crp.NodeDelta{{NodeMeta: crp.NodeMeta{Node: "n1"}, Probes: stateProbes}}}),
		stateFrame(t, Msg{Type: MsgDelta, From: "d1", Deltas: []crp.NodeDelta{{NodeMeta: crp.NodeMeta{Node: "n1", Version: 1}}}}),
	}
	for _, c := range deletionFrames() {
		seeds = append(seeds, asStateFrame(c.raw))
	}
	return seeds
}

// FuzzReadState fuzzes the state-file reader: never panic, and a file it
// accepts restores to a store whose own state file reads back to the same
// digests. The checked-in corpus is stateSeeds (regenerate with
// REGEN_FUZZ_CORPUS=1).
func FuzzReadState(f *testing.F) {
	for _, raw := range stateSeeds(f) {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		svc := crp.NewServiceWithStore(crp.StoreConfig{Shards: 4}, crp.WithWindow(10))
		if err := ReadState(raw, svc); err != nil {
			return
		}
		back := crp.NewServiceWithStore(crp.StoreConfig{Shards: 4}, crp.WithWindow(10))
		if err := ReadState(writeState(t, svc), back); err != nil {
			t.Fatalf("saved state does not read back: %v", err)
		}
		if !reflect.DeepEqual(svc.ShardDigests(), back.ShardDigests()) {
			t.Fatal("state round trip changed the digests")
		}
	})
}

func TestGenerateStateCorpus(t *testing.T) {
	fuzzcorpus.Write(t, "FuzzReadState", stateSeeds(t))
}
