// Passive CRP (§VI): "even this minor overhead may not be necessary if the
// service can passively monitor user-generated DNS translations (e.g., from
// Web browsing) instead of actively requesting CDN redirections."
//
// This example simulates a user browsing the web behind a TTL-honoring
// caching resolver. The browsing traffic resolves both useful
// CDN-accelerated names and a useless CDN-owned name; a PassiveMonitor taps
// the post-cache answers, a NameSelector learns which names carry
// positioning signal, and the client ends up with a usable ratio map — and
// a correct closest-server choice — having issued zero probes of its own.
//
//	go run ./examples/passiveclient
package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"repro/crp"
	"repro/internal/cdn"
	"repro/internal/netsim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "passiveclient:", err)
		os.Exit(1)
	}
}

// ttlCache is the browser host's caching resolver: it answers a name from
// its cache until the CDN's TTL runs out, and asks the CDN's mapping system
// (in-process) on a miss.
type ttlCache struct {
	cdn     *cdn.Network
	client  netsim.HostID
	entries map[string]cachedAnswer

	hits, misses int
}

type cachedAnswer struct {
	replicas []netsim.HostID
	expires  time.Duration
}

// lookup resolves name at virtual time now.
func (c *ttlCache) lookup(name string, now time.Duration) ([]netsim.HostID, error) {
	if e, ok := c.entries[name]; ok && now < e.expires {
		c.hits++
		return e.replicas, nil
	}
	c.misses++
	replicas, err := c.cdn.Redirect(name, c.client, now)
	if err != nil {
		return nil, err
	}
	c.entries[name] = cachedAnswer{replicas: replicas, expires: now + c.cdn.TTL()}
	return replicas, nil
}

func run() error {
	params := netsim.DefaultParams()
	params.NumClients = 120
	params.NumCandidates = 40
	params.NumReplicas = 300
	topo, err := netsim.Generate(params)
	if err != nil {
		return err
	}
	network, err := cdn.New(cdn.Config{
		Topo:        topo,
		GlobalNames: []string{"a1105.akam-owned.cdn.sim."}, // carries no signal
	})
	if err != nil {
		return err
	}
	client := topo.Clients()[0]

	// The browsing session resolves names through a TTL-honoring cache.
	cache := &ttlCache{cdn: network, client: client, entries: make(map[string]cachedAnswer)}
	var now time.Duration // virtual time

	// Passive side: service + name quality learning + owned-domain filter.
	svc := crp.NewService(crp.WithWindow(30))
	selector := crp.NewNameSelector()
	monitor, err := crp.NewPassiveMonitor(svc, "browser-host", crp.PassiveConfig{
		Filter: func(r crp.ReplicaID) bool {
			id, ok := topo.HostByName(string(r))
			return ok && network.IsFallback(id)
		},
		Selector: selector,
	})
	if err != nil {
		return err
	}

	// Simulate a browsing day: bursts of page loads, each resolving the
	// names its pages embed.
	rng := rand.New(rand.NewPCG(42, 1))
	epoch := time.Now()
	lookups, recorded := 0, 0
	for burst := 0; burst < 60; burst++ {
		pageLoads := 1 + rng.IntN(5)
		for p := 0; p < pageLoads; p++ {
			for _, name := range network.Names() {
				replicas, err := cache.lookup(name, now)
				if err != nil {
					return err
				}
				lookups++
				answers := make([]crp.ReplicaID, len(replicas))
				for i, r := range replicas {
					answers[i] = crp.ReplicaID(topo.Host(r).Name)
				}
				ok, err := monitor.ObserveDNS(epoch.Add(now), name, answers...)
				if err != nil {
					return err
				}
				if ok {
					recorded++
				}
			}
			now += time.Duration(5+rng.IntN(40)) * time.Second
		}
		now += time.Duration(10+rng.IntN(30)) * time.Minute
	}

	fmt.Printf("browsing session: %d lookups observed (%d cache hits, %d upstream), %d recorded into the ratio map\n",
		lookups, cache.hits, cache.misses, recorded)

	fmt.Println("\nlearned name quality:")
	for _, q := range selector.Qualities() {
		fmt.Printf("  %-28s %3d lookups, %3d replicas, %3.0f%% filtered\n",
			q.Name, q.Lookups, q.DistinctReplicas, 100*q.FilteredFraction)
	}
	fmt.Printf("names worth watching: %v\n", selector.Select(crp.SelectCriteria{}))

	// The passively collected map supports a real decision with zero probes.
	near, far := topo.Candidates()[0], topo.Candidates()[0]
	for _, c := range topo.Candidates() {
		if topo.BaseRTTMs(client, c) < topo.BaseRTTMs(client, near) {
			near = c
		}
		if topo.BaseRTTMs(client, c) > topo.BaseRTTMs(client, far) {
			far = c
		}
	}
	// The two servers' maps come from their own (active) tracking.
	for _, srv := range []netsim.HostID{near, far} {
		for i := 0; i < 20; i++ {
			at := time.Duration(i) * 10 * time.Minute
			for _, name := range network.Names()[:2] {
				replicas, err := network.Redirect(name, srv, at)
				if err != nil {
					return err
				}
				ids := make([]crp.ReplicaID, len(replicas))
				for j, r := range replicas {
					ids[j] = crp.ReplicaID(topo.Host(r).Name)
				}
				if err := svc.Observe(crp.NodeID(topo.Host(srv).Name), epoch.Add(at), ids...); err != nil {
					return err
				}
			}
		}
	}
	best, ok, err := svc.ClosestTo("browser-host",
		[]crp.NodeID{crp.NodeID(topo.Host(near).Name), crp.NodeID(topo.Host(far).Name)})
	if err != nil {
		return err
	}
	verdict := "near"
	if best.Node == crp.NodeID(topo.Host(far).Name) {
		verdict = "far (wrong!)"
	}
	fmt.Printf("\nzero-probe selection: %s = the %s server (similarity %.3f, signal %v)\n",
		best.Node, verdict, best.Similarity, ok)
	fmt.Printf("true RTTs: near %s %.1f ms, far %s %.1f ms\n",
		topo.Host(near).Name, topo.RTTMs(client, near, now),
		topo.Host(far).Name, topo.RTTMs(client, far, now))
	return nil
}
