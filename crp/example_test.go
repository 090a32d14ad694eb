package crp_test

import (
	"fmt"
	"time"

	"repro/crp"
)

// The paper's §IV-A worked example: node A chooses between servers B and C
// by comparing cosine similarities of their redirection ratio maps.
func ExampleCosineSimilarity() {
	a := crp.RatioMap{"rx": 0.2, "ry": 0.8}
	b := crp.RatioMap{"rx": 0.6, "ry": 0.4}
	c := crp.RatioMap{"rx": 0.1, "ry": 0.9}
	fmt.Printf("cos_sim(A,B) = %.3f\n", crp.CosineSimilarity(a, b))
	fmt.Printf("cos_sim(A,C) = %.3f\n", crp.CosineSimilarity(a, c))
	// Output:
	// cos_sim(A,B) = 0.740
	// cos_sim(A,C) = 0.991
}

func ExampleSelectClosest() {
	client := crp.RatioMap{"rx": 0.2, "ry": 0.8}
	candidates := map[crp.NodeID]crp.RatioMap{
		"server-b": {"rx": 0.6, "ry": 0.4},
		"server-c": {"rx": 0.1, "ry": 0.9},
	}
	best, ok := crp.SelectClosest(client, candidates)
	fmt.Printf("%s (similarity %.3f, signal %v)\n", best.Node, best.Similarity, ok)
	// Output:
	// server-c (similarity 0.991, signal true)
}

func ExampleTracker() {
	// A node is redirected to r1 on 3 of 10 lookups and to r2 on 7.
	tr := crp.NewTracker(crp.WithWindow(10))
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		replica := crp.ReplicaID("r2")
		if i < 3 {
			replica = "r1"
		}
		tr.Observe(start.Add(time.Duration(i)*10*time.Minute), replica)
	}
	fmt.Println(tr.RatioMap())
	// Output:
	// ⟨r1 ⇒ 0.300, r2 ⇒ 0.700⟩
}

func ExampleService_ClusterAll() {
	svc := crp.NewService()
	at := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	// Ten lookups per node, each redirected to one replica.
	observe := func(node crp.NodeID, replica crp.ReplicaID, n int) {
		for i := 0; i < n; i++ {
			_ = svc.Observe(node, at.Add(time.Duration(i)*time.Minute), replica)
		}
	}
	observe("ny-1", "nyc-a", 7)
	observe("ny-1", "nyc-b", 3)
	observe("ny-2", "nyc-a", 6)
	observe("ny-2", "nyc-b", 4)
	observe("ldn-1", "lon-a", 9)
	observe("ldn-1", "lon-b", 1)
	observe("ldn-2", "lon-a", 8)
	observe("ldn-2", "lon-b", 2)
	clusters, err := svc.ClusterAll(crp.ClusterConfig{Threshold: crp.DefaultThreshold})
	if err != nil {
		panic(err)
	}
	for _, c := range clusters {
		fmt.Printf("center %s: %v\n", c.Center, c.Members)
	}
	// Output:
	// center ldn-1: [ldn-1 ldn-2]
	// center ny-1: [ny-1 ny-2]
}

func ExampleService() {
	svc := crp.NewService(crp.WithWindow(10))
	at := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		t := at.Add(time.Duration(i) * 10 * time.Minute)
		_ = svc.Observe("client", t, "replica-west-1", "replica-west-2")
		_ = svc.Observe("server-near", t, "replica-west-1", "replica-west-2")
		_ = svc.Observe("server-far", t, "replica-east-1")
	}
	best, ok, err := svc.ClosestTo("client", []crp.NodeID{"server-near", "server-far"})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s %v\n", best.Node, ok)
	// Output:
	// server-near true
}
