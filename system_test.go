package repro

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/crp"
	"repro/internal/asn"
	"repro/internal/cdn"
	"repro/internal/crpdaemon"
	"repro/internal/meridian"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// TestSystemEndToEnd drives the complete CRP pipeline through its deployed
// interface: a generated world, every host's CDN redirections sent as
// observe requests to a crpd daemon on loopback UDP (half the hosts speak
// the JSON codec, half the binary one), and closest-node and clustering
// queries answered over the wire. Every reply must equal the answer of an
// in-process crp.Service fed the same probes, and the answers are validated
// against the simulator's ground truth. It is the cross-module integration
// test: cdn ↔ netsim ↔ crpdaemon ↔ crp.
func TestSystemEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}

	// World.
	params := netsim.DefaultParams()
	params.NumClients = 40
	params.NumCandidates = 30
	params.NumReplicas = 120
	topo, err := netsim.Generate(params)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	network, err := cdn.New(cdn.Config{Topo: topo})
	if err != nil {
		t.Fatalf("cdn.New: %v", err)
	}

	// Deployed path: crpd on loopback UDP. Reference: one in-process service.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	daemon, err := crpdaemon.Serve(pc, crp.NewService(crp.WithWindow(10)), crpdaemon.Config{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Close()
	conn, err := net.Dial("udp", daemon.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, crpdaemon.MaxReplySize)
	call := func(req crpdaemon.Request, bin bool) crpdaemon.Response {
		t.Helper()
		raw, err := crpdaemon.EncodeRequest(&req, bin)
		if err != nil {
			t.Fatalf("encode %s: %v", req.Op, err)
		}
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("read reply to %s: %v", req.Op, err)
		}
		resp, gotBin, err := crpdaemon.DecodeResponse(buf[:n])
		if err != nil || gotBin != bin {
			t.Fatalf("reply to %s: codec bin=%v (sent bin=%v), err %v", req.Op, gotBin, bin, err)
		}
		if !resp.OK {
			t.Fatalf("%s failed: %s", req.Op, resp.Error)
		}
		return resp
	}
	ref := crp.NewService(crp.WithWindow(10))

	// Everyone (a sample of clients + all candidates) reports its
	// redirections to crpd, and the same probes feed the reference.
	epoch := time.Now()
	sample := topo.Clients()[:12]
	participants := append(append([]netsim.HostID(nil), sample...), topo.Candidates()...)
	nodeOf := func(h netsim.HostID) crp.NodeID { return crp.NodeID(topo.Host(h).Name) }
	for i, h := range participants {
		bin := i%2 == 1
		for probe := 0; probe < 10; probe++ {
			at := time.Duration(probe) * 10 * time.Minute
			for _, name := range network.Names() {
				replicas, err := network.Redirect(name, h, at)
				if err != nil {
					t.Fatalf("redirect %q for host %d: %v", name, h, err)
				}
				var ids []crp.ReplicaID
				var names []string
				for _, r := range replicas {
					if network.IsFallback(r) {
						continue
					}
					ids = append(ids, crp.ReplicaID(topo.Host(r).Name))
					names = append(names, topo.Host(r).Name)
				}
				call(crpdaemon.Request{Op: "observe", Node: string(nodeOf(h)), Replicas: names}, bin)
				if err := ref.Observe(nodeOf(h), epoch.Add(at), ids...); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	candidates := make([]crp.NodeID, len(topo.Candidates()))
	candNames := make([]string, len(topo.Candidates()))
	for i, c := range topo.Candidates() {
		candidates[i] = nodeOf(c)
		candNames[i] = string(candidates[i])
	}

	// Closest-node selection over the wire must equal the reference ranking
	// and clearly beat random assignment on true RTT.
	evalAt := 100 * time.Minute
	var crpSum, randSum float64
	for i, client := range sample {
		resp := call(crpdaemon.Request{Op: "closest", Client: string(nodeOf(client)), Candidates: candNames, K: 5}, i%2 == 1)
		want, err := ref.TopK(nodeOf(client), candidates, 5)
		if err != nil {
			t.Fatalf("TopK: %v", err)
		}
		if len(resp.Ranked) != len(want) {
			t.Fatalf("closest for %s: %d ranked over the wire, %d in process", nodeOf(client), len(resp.Ranked), len(want))
		}
		for j, r := range resp.Ranked {
			if crp.NodeID(r.Node) != want[j].Node || r.Similarity != want[j].Similarity {
				t.Fatalf("closest for %s, rank %d: wire %v, in process %v", nodeOf(client), j, r, want[j])
			}
		}
		if len(want) == 0 {
			t.Fatalf("closest for %s: no candidates ranked", nodeOf(client))
		}
		chosen, ok := topo.HostByName(string(want[0].Node))
		if !ok {
			t.Fatalf("selected unknown node %q", want[0].Node)
		}
		crpSum += topo.RTTMs(client, chosen, evalAt)
		randSum += topo.RTTMs(client, topo.Candidates()[(i*7)%len(topo.Candidates())], evalAt)
	}
	if crpSum >= randSum {
		t.Errorf("CRP selection (total %.0f ms) no better than random (%.0f ms)", crpSum, randSum)
	}

	// Clustering over the wire must equal the reference's SMF answers.
	smf := crp.ClusterConfig{Threshold: crp.DefaultThreshold, SecondPass: true}
	sameNodes := func(op string, got []string, want []crp.NodeID) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %v over the wire, %v in process", op, got, want)
		}
		for i := range got {
			if crp.NodeID(got[i]) != want[i] {
				t.Fatalf("%s: %v over the wire, %v in process", op, got, want)
			}
		}
	}
	for i, client := range sample {
		resp := call(crpdaemon.Request{Op: "same_cluster", Node: string(nodeOf(client))}, i%2 == 1)
		want, err := ref.SameCluster(nodeOf(client), smf)
		if err != nil {
			t.Fatalf("SameCluster: %v", err)
		}
		sameNodes("same_cluster "+string(nodeOf(client)), resp.Nodes, want)
	}
	for _, bin := range []bool{false, true} {
		resp := call(crpdaemon.Request{Op: "distinct_clusters", N: 5}, bin)
		want, err := ref.DistinctClusters(5, smf)
		if err != nil {
			t.Fatalf("DistinctClusters: %v", err)
		}
		sameNodes("distinct_clusters", resp.Nodes, want)
	}

	// Members of multi-node clusters must be closer to their centers than
	// the population average pair.
	clusters, err := ref.ClusterAll(smf)
	if err != nil {
		t.Fatalf("ClusterAll: %v", err)
	}
	var intraSum float64
	var intraN int
	for _, c := range clusters {
		if c.Size() < 2 {
			continue
		}
		cid, _ := topo.HostByName(string(c.Center))
		for _, m := range c.Members {
			if m == c.Center {
				continue
			}
			mid, _ := topo.HostByName(string(m))
			intraSum += topo.RTTMs(cid, mid, evalAt)
			intraN++
		}
	}
	if intraN == 0 {
		t.Fatal("no multi-node clusters formed")
	}
	var allSum float64
	var allN int
	for i := 0; i < len(participants); i++ {
		for j := i + 1; j < len(participants); j += 7 {
			allSum += topo.RTTMs(participants[i], participants[j], evalAt)
			allN++
		}
	}
	if intraSum/float64(intraN) >= allSum/float64(allN) {
		t.Errorf("intra-cluster mean RTT %.1f not below population mean %.1f",
			intraSum/float64(intraN), allSum/float64(allN))
	}

	// The ASN table operates on the same world.
	table, err := asn.BuildTable(topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := table.Lookup(topo.Host(sample[0]).Addr); !ok {
		t.Error("ASN table missed a generated host")
	}

	// And the Meridian overlay answers queries on it too.
	overlay, err := meridian.Build(meridian.Config{Topo: topo, Members: topo.Candidates(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := overlay.ClosestTo(overlay.Members()[0], sample[0], evalAt)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Host(rec) == nil {
		t.Error("meridian recommended an unknown host")
	}
}

// TestSystemDeterministicAcrossRuns guards the repository's determinism
// guarantee at the system level: two fully independent worlds built from the
// same seed agree on redirections, similarities and clusters.
func TestSystemDeterministicAcrossRuns(t *testing.T) {
	build := func() (*netsim.Topology, *cdn.Network) {
		p := netsim.DefaultParams()
		p.NumClients = 30
		p.NumCandidates = 10
		p.NumReplicas = 60
		topo, err := netsim.Generate(p)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		network, err := cdn.New(cdn.Config{Topo: topo})
		if err != nil {
			t.Fatalf("cdn.New: %v", err)
		}
		return topo, network
	}
	topoA, cdnA := build()
	topoB, cdnB := build()

	for i, client := range topoA.Clients() {
		at := time.Duration(i) * 13 * time.Minute
		for _, name := range cdnA.Names() {
			a, err := cdnA.Redirect(name, client, at)
			if err != nil {
				t.Fatal(err)
			}
			b, err := cdnB.Redirect(name, client, at)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("redirections diverged for client %d at %v: %v vs %v", client, at, a, b)
			}
		}
		if topoA.RTTMs(client, topoA.Candidates()[0], at) != topoB.RTTMs(client, topoB.Candidates()[0], at) {
			t.Fatalf("RTTs diverged for client %d", client)
		}
	}
}
