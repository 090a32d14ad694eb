package crpdaemon

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/crp"
	"repro/internal/obs"
	"repro/internal/peering"
)

// meshDaemon is one member of a real-UDP gossip mesh: a daemon on its query
// socket plus a peering engine on its own gossip socket.
type meshDaemon struct {
	d    *Daemon
	svc  *crp.Service
	peer *peering.Peering
	qpc  net.PacketConn // query socket
	gpc  net.PacketConn // gossip socket
}

func startMeshDaemon(t *testing.T, id string) *meshDaemon {
	t.Helper()
	svc := crp.NewServiceWithStore(crp.StoreConfig{Shards: 16}, crp.WithWindow(10))
	gpc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p, err := peering.New(peering.Config{
		Self: id, Addr: gpc.LocalAddr().String(), Service: svc,
		Interval: 20 * time.Millisecond,
		Registry: obs.NewRegistry(), Seed: 42,
	})
	if err != nil {
		gpc.Close()
		t.Fatal(err)
	}
	p.Attach(gpc)
	if err := p.Start(); err != nil {
		gpc.Close()
		t.Fatal(err)
	}
	qpc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		p.Close()
		gpc.Close()
		t.Fatal(err)
	}
	d, err := Serve(qpc, svc, Config{Registry: obs.NewRegistry(), Peering: p})
	if err != nil {
		p.Close()
		gpc.Close()
		qpc.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.Close()
		p.Close()
		gpc.Close()
	})
	return &meshDaemon{d: d, svc: svc, peer: p, qpc: qpc, gpc: gpc}
}

// TestThreeDaemonMeshConvergesOverUDP is the end-to-end mesh test: three
// daemons on real UDP sockets, meshed through the peer-join op, fed disjoint
// observation streams through the query protocol, must converge to
// byte-identical compiled snapshots; an overwrite observed on a daemon that
// is not the node's origin must win on all; peer-status must report the
// mesh.
func TestThreeDaemonMeshConvergesOverUDP(t *testing.T) {
	ids := []string{"mesh-a", "mesh-b", "mesh-c"}
	ds := make([]*meshDaemon, len(ids))
	for i, id := range ids {
		ds[i] = startMeshDaemon(t, id)
	}

	// Mesh via the daemon op: a joins b, b joins c, c joins a. Join-acks
	// make each link bidirectional; anti-entropy handles the rest.
	clients := make([]*testClient, len(ds))
	for i := range ds {
		clients[i] = dialDaemon(t, ds[i].qpc)
		defer clients[i].close()
	}
	for i := range ds {
		target := ds[(i+1)%len(ds)].gpc.LocalAddr().String()
		resp := clients[i].roundTrip(t, fmt.Sprintf(`{"op":"peer-join","addr":"%s"}`, target))
		if !resp.OK {
			t.Fatalf("peer-join from %s: %+v", ids[i], resp)
		}
	}

	// Disjoint observation streams through the query protocol.
	for i, c := range clients {
		for j := 0; j < 6; j++ {
			req := fmt.Sprintf(`{"op":"observe","node":"%s-n%d","replicas":["r%d","r%d"]}`,
				ids[i], j, j%3, (j+1)%3)
			if resp := c.roundTrip(t, req); !resp.OK {
				t.Fatalf("observe on %s: %+v", ids[i], resp)
			}
		}
	}

	waitConverged := func(wantNodes int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if meshConverged(ds, wantNodes) {
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
		for i, md := range ds {
			t.Logf("%s: %d nodes, digests %v", ids[i], len(md.svc.Nodes()), md.svc.ShardDigests()[:4])
		}
		t.Fatalf("mesh did not converge to %d nodes within 10s", wantNodes)
	}
	waitConverged(18)

	// Compiled snapshots must be byte-identical across the mesh.
	var snaps [][]byte
	for _, md := range ds {
		var buf bytes.Buffer
		if err := md.svc.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, buf.Bytes())
	}
	for i := 1; i < len(snaps); i++ {
		if !bytes.Equal(snaps[0], snaps[i]) {
			t.Fatalf("snapshot of %s differs from %s", ids[i], ids[0])
		}
	}

	// An overwrite on daemon b must win mesh-wide.
	if resp := clients[1].roundTrip(t, `{"op":"similarity","a":"mesh-a-n0","b":"mesh-a-n1"}`); !resp.OK {
		t.Fatalf("replicated node not queryable on mesh-b: %+v", resp)
	}
	if resp := clients[1].roundTrip(t, `{"op":"observe","node":"mesh-a-n0","replicas":["r9"]}`); !resp.OK {
		t.Fatalf("overwrite on mesh-b: %+v", resp)
	}
	want, _ := ds[1].svc.ExportDelta("mesh-a-n0")
	waitConverged(18)
	for i, md := range ds {
		if got, ok := md.svc.ExportDelta("mesh-a-n0"); !ok || got.NodeMeta != want.NodeMeta || want.Origin != "mesh-b" {
			t.Fatalf("%s holds mesh-a-n0 as %+v, want mesh-b's %+v", ids[i], got.NodeMeta, want.NodeMeta)
		}
	}

	// peer-status over the wire must report the mesh and live counters.
	resp := clients[0].roundTrip(t, `{"op":"peer-status"}`)
	if !resp.OK || resp.Peering == nil {
		t.Fatalf("peer-status = %+v", resp)
	}
	if resp.Peering.Self != "mesh-a" || len(resp.Peering.Peers) != 2 {
		t.Fatalf("peer-status report = %+v", resp.Peering)
	}
	if resp.Peering.Stats.Rounds == 0 || resp.Peering.Stats.DeltasApplied == 0 {
		t.Fatalf("peer-status stats flat: %+v", resp.Peering.Stats)
	}
}

// meshConverged reports whether every daemon holds exactly wantNodes nodes
// and all shard digests agree.
func meshConverged(ds []*meshDaemon, wantNodes int) bool {
	ref := ds[0].svc.ShardDigests()
	if len(ds[0].svc.Nodes()) != wantNodes {
		return false
	}
	for _, md := range ds[1:] {
		if len(md.svc.Nodes()) != wantNodes {
			return false
		}
		got := md.svc.ShardDigests()
		for i := range ref {
			if got[i] != ref[i] {
				return false
			}
		}
	}
	return true
}

// TestPeeringOpsDisabledWithoutEngine pins the structured error for daemons
// started without a gossip engine.
func TestPeeringOpsDisabledWithoutEngine(t *testing.T) {
	d := testDaemon()
	if resp := do(t, d, `{"op":"peer-status"}`); resp.OK || resp.Error == "" {
		t.Fatalf("peer-status without engine = %+v", resp)
	}
	if resp := do(t, d, `{"op":"peer-join","addr":"127.0.0.1:1"}`); resp.OK || resp.Error == "" {
		t.Fatalf("peer-join without engine = %+v", resp)
	}
}
