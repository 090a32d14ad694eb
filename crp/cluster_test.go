package crp

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// Node couples a node identity with its redirection ratio map: the
// map-keyed input of the tests' SMF runs.
type Node struct {
	ID  NodeID
	Map RatioMap
}

// clusterSMF compiles each node's map and runs the one SMF, clusterVecs,
// under the plain cosine: Service.ClusterAll's algorithm on hand-built maps.
func clusterSMF(nodes []Node, cfg ClusterConfig) ([]Cluster, error) {
	vecs := make([]nodeVec, len(nodes))
	for i, n := range nodes {
		vecs[i] = nodeVec{id: n.ID, vec: compileRatioMap(n.Map)}
	}
	return clusterVecs(vecs, cfg, plainCosine)
}

// threeMetros builds nodes in three synthetic "metros", each dominated by
// its own replica servers, plus one node with no overlap at all.
func threeMetros() []Node {
	return []Node{
		// Metro 1: dominated by rA/rB.
		{ID: "m1-a", Map: RatioMap{"rA": 0.9, "rB": 0.1}},
		{ID: "m1-b", Map: RatioMap{"rA": 0.7, "rB": 0.3}},
		{ID: "m1-c", Map: RatioMap{"rA": 0.6, "rB": 0.4}},
		// Metro 2: dominated by rC/rD.
		{ID: "m2-a", Map: RatioMap{"rC": 0.8, "rD": 0.2}},
		{ID: "m2-b", Map: RatioMap{"rC": 0.65, "rD": 0.35}},
		// Metro 3: dominated by rE.
		{ID: "m3-a", Map: RatioMap{"rE": 1.0}},
		{ID: "m3-b", Map: RatioMap{"rE": 0.85, "rA": 0.15}},
		// Orphan: unique replica set.
		{ID: "orphan", Map: RatioMap{"rZ": 1.0}},
	}
}

func clusterOf(t *testing.T, clusters []Cluster, id NodeID) Cluster {
	t.Helper()
	for _, c := range clusters {
		for _, m := range c.Members {
			if m == id {
				return c
			}
		}
	}
	t.Fatalf("node %q not in any cluster", id)
	return Cluster{}
}

func TestClusterSMFGroupsMetros(t *testing.T) {
	clusters, err := clusterSMF(threeMetros(), ClusterConfig{Threshold: DefaultThreshold})
	if err != nil {
		t.Fatal(err)
	}
	// Every node appears exactly once.
	total := 0
	seen := map[NodeID]bool{}
	for _, c := range clusters {
		total += c.Size()
		for _, m := range c.Members {
			if seen[m] {
				t.Errorf("node %q in multiple clusters", m)
			}
			seen[m] = true
		}
	}
	if total != len(threeMetros()) {
		t.Errorf("clusters cover %d nodes, want %d", total, len(threeMetros()))
	}

	// Metro cohesion: each metro's nodes share a cluster.
	for _, metro := range [][]NodeID{
		{"m1-a", "m1-b", "m1-c"},
		{"m2-a", "m2-b"},
		{"m3-a", "m3-b"},
	} {
		first := clusterOf(t, clusters, metro[0])
		for _, id := range metro[1:] {
			if clusterOf(t, clusters, id).Center != first.Center {
				t.Errorf("nodes %v split across clusters", metro)
			}
		}
	}
	// Metro separation: distinct metros are in distinct clusters.
	if clusterOf(t, clusters, "m1-a").Center == clusterOf(t, clusters, "m2-a").Center {
		t.Error("metros 1 and 2 merged")
	}
	// Orphan is a singleton.
	if got := clusterOf(t, clusters, "orphan"); got.Size() != 1 {
		t.Errorf("orphan cluster size = %d, want 1", got.Size())
	}
}

func TestClusterSMFCentersHaveStrongestMappings(t *testing.T) {
	clusters, err := clusterSMF(threeMetros(), ClusterConfig{Threshold: DefaultThreshold})
	if err != nil {
		t.Fatal(err)
	}
	// m1-a (ratio 0.9 to rA) should be metro 1's center, m3-a (1.0) metro 3's.
	if c := clusterOf(t, clusters, "m1-a"); c.Center != "m1-a" {
		t.Errorf("metro 1 center = %v, want m1-a (strongest mapping)", c.Center)
	}
	if c := clusterOf(t, clusters, "m3-a"); c.Center != "m3-a" {
		t.Errorf("metro 3 center = %v, want m3-a", c.Center)
	}
}

func TestClusterSMFThresholdMonotonicity(t *testing.T) {
	// Higher t clusters fewer nodes (Table I's first three rows).
	nodes := threeMetros()
	var fracs []float64
	for _, threshold := range []float64{0.01, 0.1, 0.9999} {
		clusters, err := clusterSMF(nodes, ClusterConfig{Threshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		fracs = append(fracs, Summarize(clusters, len(nodes)).FracClustered)
	}
	if fracs[0] < fracs[1] || fracs[1] < fracs[2] {
		t.Errorf("clustered fractions %v not non-increasing in t", fracs)
	}
	if fracs[2] >= fracs[0] {
		t.Errorf("extreme threshold should cluster strictly fewer nodes: %v", fracs)
	}
}

func TestClusterSMFSecondPassGroupsLeftovers(t *testing.T) {
	// Two nodes that are similar to each other but dissimilar to every
	// center stay singletons in pass 1 and merge in pass 2.
	nodes := append(threeMetros(),
		Node{ID: "pair-1", Map: RatioMap{"rP": 0.5, "rQ": 0.5}},
		Node{ID: "pair-2", Map: RatioMap{"rP": 0.45, "rQ": 0.55}},
	)
	// pair-1 dominates neither rP nor rQ... actually one of the pair will be
	// a center (strongest mapping for rP/rQ). Use maps whose dominant
	// replicas are claimed by stronger nodes.
	nodes = append(nodes,
		Node{ID: "anchor-p", Map: RatioMap{"rP": 1.0}},
		Node{ID: "anchor-q", Map: RatioMap{"rQ": 1.0}},
	)

	single, err := clusterSMF(nodes, ClusterConfig{Threshold: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	second, err := clusterSMF(nodes, ClusterConfig{Threshold: 0.95, SecondPass: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s1 := Summarize(single, len(nodes))
	s2 := Summarize(second, len(nodes))
	if s2.NodesClustered < s1.NodesClustered {
		t.Errorf("second pass clustered fewer nodes (%d) than single pass (%d)",
			s2.NodesClustered, s1.NodesClustered)
	}
	// The similar pair must end up together under the second pass.
	if clusterOf(t, second, "pair-1").Center != clusterOf(t, second, "pair-2").Center {
		t.Error("second pass failed to merge the similar singleton pair")
	}
}

func TestClusterSMFDeterministic(t *testing.T) {
	for i := 0; i < 5; i++ {
		a, err := clusterSMF(threeMetros(), ClusterConfig{Threshold: 0.1, SecondPass: true, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		b, err := clusterSMF(threeMetros(), ClusterConfig{Threshold: 0.1, SecondPass: true, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("non-deterministic clustering:\n%v\n%v", a, b)
		}
	}
}

func TestClusterSMFInputOrderIrrelevant(t *testing.T) {
	nodes := threeMetros()
	reversed := make([]Node, len(nodes))
	for i, n := range nodes {
		reversed[len(nodes)-1-i] = n
	}
	a, err := clusterSMF(nodes, ClusterConfig{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := clusterSMF(reversed, ClusterConfig{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("clustering depends on input order:\n%v\n%v", a, b)
	}
}

func TestClusterSMFValidation(t *testing.T) {
	if _, err := clusterSMF(threeMetros(), ClusterConfig{Threshold: -0.1}); err == nil {
		t.Error("negative threshold should fail")
	}
	if _, err := clusterSMF(threeMetros(), ClusterConfig{Threshold: 1.5}); err == nil {
		t.Error("threshold > 1 should fail")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := clusterSMF(threeMetros(), ClusterConfig{Threshold: bad}); err == nil {
			t.Errorf("threshold %v should fail", bad)
		}
	}
}

func TestClusterSMFEmptyAndDegenerateInputs(t *testing.T) {
	clusters, err := clusterSMF(nil, ClusterConfig{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 0 {
		t.Errorf("clustering nothing produced %v", clusters)
	}
	// Nodes with empty maps become singletons.
	clusters, err = clusterSMF([]Node{
		{ID: "empty1", Map: RatioMap{}},
		{ID: "empty2", Map: nil},
		{ID: "real", Map: RatioMap{"r": 1}},
	}, ClusterConfig{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 3 {
		t.Errorf("got %d clusters, want 3 singletons", len(clusters))
	}
}

func TestClusterSMFSortedBySizeThenCenter(t *testing.T) {
	clusters, err := clusterSMF(threeMetros(), ClusterConfig{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(clusters); i++ {
		if clusters[i].Size() > clusters[i-1].Size() {
			t.Errorf("clusters not sorted by size: %v", clusters)
		}
		if clusters[i].Size() == clusters[i-1].Size() &&
			clusters[i].Center < clusters[i-1].Center {
			t.Errorf("size ties not sorted by center: %v", clusters)
		}
	}
}

func TestClusterSMFScalesToManyNodes(t *testing.T) {
	// A sanity/perf guard: 500 nodes over 50 replica groups must cluster
	// correctly and fast.
	var nodes []Node
	for i := 0; i < 500; i++ {
		group := i % 50
		nodes = append(nodes, Node{
			ID: NodeID(fmt.Sprintf("n%03d", i)),
			Map: RatioMap{
				ReplicaID(fmt.Sprintf("g%d-a", group)): 0.6 + float64(i%5)*0.05,
				ReplicaID(fmt.Sprintf("g%d-b", group)): 0.4 - float64(i%5)*0.05,
			},
		})
	}
	clusters, err := clusterSMF(nodes, ClusterConfig{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(clusters, len(nodes))
	if s.NumClusters != 50 {
		t.Errorf("got %d clusters, want 50", s.NumClusters)
	}
	if s.NodesClustered != 500 {
		t.Errorf("clustered %d nodes, want all 500", s.NodesClustered)
	}
}

func TestDominant(t *testing.T) {
	r, f := dominantVec(compileRatioMap(RatioMap{"b": 0.5, "a": 0.5, "c": 0.3}))
	if r != "a" || f != 0.5 {
		t.Errorf("dominantVec = %v,%v; want a,0.5 (tie to smallest ID)", r, f)
	}
	if r, f := dominantVec(compileRatioMap(RatioMap{})); r != "" || f != 0 {
		t.Errorf("dominantVec of empty = %v,%v", r, f)
	}
}
