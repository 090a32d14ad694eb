// Quickstart: the smallest end-to-end CRP pipeline.
//
// It boots a simulated world (topology + Akamai-like CDN), lets three hosts
// collect their CDN redirections, and then uses the public crp package to
// compare their ratio maps, select the closest of two servers for a client,
// and cluster 40 clients — the paper's §III/§IV workflow in miniature. A
// deployed CRP client reads the same redirections from its resolver's
// answers; here they come from the CDN's mapping system in-process.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/crp"
	"repro/internal/cdn"
	"repro/internal/netsim"
)

// Every host probes 12 times at a 10-minute (virtual) interval.
const (
	probes   = 12
	interval = 10 * time.Minute
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. A small simulated world: hosts, ASes, latencies, and a CDN.
	params := netsim.DefaultParams()
	params.NumClients = 100
	params.NumCandidates = 20
	params.NumReplicas = 150
	topo, err := netsim.Generate(params)
	if err != nil {
		return err
	}
	network, err := cdn.New(cdn.Config{Topo: topo})
	if err != nil {
		return err
	}

	// 2. A client in the CDN's best-covered region, and two candidate
	// servers: the truly nearest and the truly farthest. CRP should tell
	// them apart without the client ever probing either.
	client := topo.Clients()[0]
	for _, c := range topo.Clients() {
		if topo.Host(c).Region == "north-america" {
			client = c
			break
		}
	}
	near, far := topo.Candidates()[0], topo.Candidates()[0]
	for _, c := range topo.Candidates() {
		if topo.BaseRTTMs(client, c) < topo.BaseRTTMs(client, near) {
			near = c
		}
		if topo.BaseRTTMs(client, c) > topo.BaseRTTMs(client, far) {
			far = c
		}
	}

	// 3. Everyone watches their CDN redirections.
	svc := crp.NewService(crp.WithWindow(10))
	epoch := time.Now()
	for _, h := range []netsim.HostID{client, near, far} {
		if err := observe(svc, topo, network, epoch, h); err != nil {
			return err
		}
	}

	// 4. Inspect the ratio maps and relative positions.
	for _, h := range []netsim.HostID{client, near, far} {
		m, err := svc.RatioMap(nodeID(topo, h))
		if err != nil {
			return err
		}
		fmt.Printf("%-22s (%s)\n  ν = %s\n", topo.Host(h).Name, topo.Host(h).Region, m)
	}
	simNear, err := svc.Similarity(nodeID(topo, client), nodeID(topo, near))
	if err != nil {
		return err
	}
	simFar, err := svc.Similarity(nodeID(topo, client), nodeID(topo, far))
	if err != nil {
		return err
	}
	fmt.Printf("\ncos_sim(client, near server) = %.3f\n", simNear)
	fmt.Printf("cos_sim(client, far server)  = %.3f\n", simFar)

	// 5. Closest-node selection, and the ground truth it should match.
	best, ok, err := svc.ClosestTo(nodeID(topo, client), []crp.NodeID{nodeID(topo, near), nodeID(topo, far)})
	if err != nil {
		return err
	}
	fmt.Printf("\nCRP selects %s (similarity %.3f, signal=%v)\n", best.Node, best.Similarity, ok)
	end := probes * interval
	fmt.Printf("true RTTs: near %.1f ms, far %.1f ms\n",
		topo.RTTMs(client, near, end), topo.RTTMs(client, far, end))

	// 6. Clustering: 40 clients watch their redirections the same way, and
	// Strongest Mappings First groups them.
	for _, h := range topo.Clients()[:40] {
		if err := observe(svc, topo, network, epoch, h); err != nil {
			return err
		}
	}
	clusters, err := svc.ClusterAll(crp.ClusterConfig{Threshold: crp.DefaultThreshold, SecondPass: true})
	if err != nil {
		return err
	}
	fmt.Println("\nclusters of 40 clients (multi-node only):")
	for _, c := range clusters {
		if c.Size() < 2 {
			continue
		}
		regions := map[string]bool{}
		for _, m := range c.Members {
			if id, ok := topo.HostByName(string(m)); ok {
				regions[topo.Host(id).Region] = true
			}
		}
		fmt.Printf("  center %-22s %2d members, regions %v\n", c.Center, c.Size(), keys(regions))
	}
	return nil
}

// observe records host h's CDN redirections for every name, one probe per
// interval from virtual time zero, into svc.
func observe(svc *crp.Service, topo *netsim.Topology, network *cdn.Network, epoch time.Time, h netsim.HostID) error {
	for i := 0; i < probes; i++ {
		at := time.Duration(i) * interval
		for _, name := range network.Names() {
			replicas, err := network.Redirect(name, h, at)
			if err != nil {
				return err
			}
			ids := make([]crp.ReplicaID, len(replicas))
			for j, r := range replicas {
				ids[j] = crp.ReplicaID(topo.Host(r).Name)
			}
			if err := svc.Observe(nodeID(topo, h), epoch.Add(at), ids...); err != nil {
				return err
			}
		}
	}
	return nil
}

func keys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func nodeID(topo *netsim.Topology, h netsim.HostID) crp.NodeID {
	return crp.NodeID(topo.Host(h).Name)
}
