// Package repro's micro-benchmarks time the kernels under CRP's data paths
// one at a time: cosine similarity (the public call and its Dot-and-Norms
// core), tracker observe, repeated Service.TopK, an all-nodes Service.TopK
// over a fully dirty store, Service.ClusterAll (SMF) over the same 50k-node
// store, and the simulator's CDN redirect, RTT model and Meridian query. They are a quick local look at one kernel, not a gate.
// The paper's tables and figures come from cmd/crpbench, and end-to-end
// timing from the benchmark directory.
package repro

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/crp"
	"repro/internal/experiment"
)

var (
	benchOnce sync.Once
	benchSc   *experiment.PaperWorld
	benchErr  error
)

// benchScenario is the shared reduced-scale world (same candidate density
// as the paper) that the redirect, RTT and Meridian benchmarks draw from.
func benchScenario(b *testing.B) *experiment.PaperWorld {
	b.Helper()
	benchOnce.Do(func() {
		benchSc, benchErr = experiment.NewPaperWorld(experiment.WorldParams{
			Seed:             1,
			NumClients:       150,
			NumCandidates:    240,
			NumReplicas:      500,
			MeridianFailures: true,
		})
	})
	if benchErr != nil {
		b.Fatalf("NewPaperWorld: %v", benchErr)
	}
	return benchSc
}

func BenchmarkCosineSimilarity(b *testing.B) {
	a := crp.RatioMap{}
	c := crp.RatioMap{}
	for i := 0; i < 12; i++ {
		a[crp.ReplicaID(string(rune('a'+i)))] = float64(i + 1)
		if i%2 == 0 {
			c[crp.ReplicaID(string(rune('a'+i)))] = float64(13 - i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = crp.CosineSimilarity(a, c)
	}
}

func BenchmarkTrackerObserve(b *testing.B) {
	tr := crp.NewTracker(crp.WithWindow(20))
	at := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(at.Add(time.Duration(i)*time.Minute), "r1", "r2")
	}
}

// synthNode is one node of a synthetic CRP population and its ratio map.
type synthNode struct {
	id crp.NodeID
	m  crp.RatioMap
}

// synthNodes builds n nodes whose ratio maps mimic a CRP population:
// groups of nodes share a metro's replica servers with node-specific biases,
// so similarity structure is realistic.
func synthNodes(n, groups, replicasPerGroup int) []synthNode {
	nodes := make([]synthNode, 0, n)
	for i := 0; i < n; i++ {
		g := i % groups
		m := crp.RatioMap{}
		for r := 0; r < replicasPerGroup; r++ {
			id := crp.ReplicaID(fmt.Sprintf("g%03d-r%d", g, r))
			m[id] = float64(1 + (i+r)%5)
		}
		// A little cross-metro bleed, like a client near a metro boundary.
		if i%7 == 0 {
			m[crp.ReplicaID(fmt.Sprintf("g%03d-r0", (g+1)%groups))] = 0.5
		}
		nodes = append(nodes, synthNode{id: crp.NodeID(fmt.Sprintf("n%04d", i)), m: normalize(m)})
	}
	return nodes
}

// normalize scales m so its ratios sum to 1, as a tracker's map does.
func normalize(m crp.RatioMap) crp.RatioMap {
	sum := m.Sum()
	for r := range m {
		m[r] /= sum
	}
	return m
}

// BenchmarkServiceTopKRepeated measures repeated Service.TopK queries with
// no interleaved observations — the steady-state query load of a deployed
// positioning service, where ratio maps are unchanged between probes.
func BenchmarkServiceTopKRepeated(b *testing.B) {
	s := crp.NewService(crp.WithWindow(10))
	at := time.Now()
	nodes := synthNodes(1000, 40, 4)
	for _, n := range nodes {
		for _, r := range n.m.Replicas() {
			if err := s.Observe(n.id, at, r); err != nil {
				b.Fatal(err)
			}
		}
	}
	client := nodes[0].id
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TopK(client, nil, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// metroStore is a 50k-node store shaped like the benchmark's metro world:
// 200 metros × 250 nodes, each node a full 10-probe window of 2-replica
// lookups drawn 65 / 20 / 10 % over its metro's three replicas and 5 % a
// random metro's first. ingest writes one more such probe to every node.
type metroStore struct {
	svc   *crp.Service
	nodes []crp.NodeID
	rng   *rand.Rand
	at    time.Time
}

// The metroStore world: node i lives in metro i/storePerMetro.
const storeMetros, storePerMetro = 200, 250

func newMetroStore(b *testing.B) *metroStore {
	ms := &metroStore{svc: crp.NewService(crp.WithWindow(10)), rng: rand.New(rand.NewSource(1)), at: time.Unix(1_700_000_000, 0)}
	for m := 0; m < storeMetros; m++ {
		for n := 0; n < storePerMetro; n++ {
			ms.nodes = append(ms.nodes, crp.NodeID(fmt.Sprintf("m%03d-n%03d", m, n)))
		}
	}
	for i := 0; i < 10; i++ {
		ms.ingest(b)
	}
	return ms
}

func (ms *metroStore) ingest(b *testing.B) {
	ms.at = ms.at.Add(time.Second)
	var probe [2]crp.ReplicaID
	for i, node := range ms.nodes {
		for j := range probe {
			metro, local := i/storePerMetro, 0
			switch r := ms.rng.Float64(); {
			case r < 0.65:
			case r < 0.85:
				local = 1
			case r < 0.95:
				local = 2
			default:
				metro = ms.rng.Intn(storeMetros)
			}
			probe[j] = crp.ReplicaID(fmt.Sprintf("m%03d-r%d", metro, local))
		}
		if err := ms.svc.Observe(node, ms.at, probe[:]...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceTopKAllDirty measures one all-nodes Service.TopK right
// after a probe was written to each of 50k nodes, so every shard rebuilds
// its vectors and postings inside the timed query — the cost a rare
// all-nodes query pays under flat-out ingest. k = 10,000 (the daemon's
// MaxK) adds the zero-similarity fill.
func BenchmarkServiceTopKAllDirty(b *testing.B) {
	ms := newMetroStore(b)
	for _, k := range []int{5, 10_000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ms.ingest(b)
				b.StartTimer()
				if _, err := ms.svc.TopK(ms.nodes[i%len(ms.nodes)], nil, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServiceClusterAll measures one Service.ClusterAll (t = 0.1, second
// pass on, as crpd asks for it) over the 50k-node metro store. An untimed
// first call compiles the snapshot, so the timed calls are the clustering
// itself: flatten, sort, centers, step 2 over the centers' postings,
// layout. This world clusters every node in step 2 at every threshold tried
// (0.01, 0.1 and 0.5 each give 373 clusters and no singleton), so it times
// step 2 only; thresholds and the second pass are covered by the crp
// package's property tests against a dense reference SMF.
func BenchmarkServiceClusterAll(b *testing.B) {
	ms := newMetroStore(b)
	cfg := crp.ClusterConfig{Threshold: crp.DefaultThreshold, SecondPass: true}
	if _, err := ms.svc.ClusterAll(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ms.svc.ClusterAll(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCosineSimilarityMapPath measures the uncompiled map-based cosine
// (Dot + two Norms), kept as the reference kernel.
func BenchmarkCosineSimilarityMapPath(b *testing.B) {
	a := crp.RatioMap{}
	c := crp.RatioMap{}
	for i := 0; i < 12; i++ {
		a[crp.ReplicaID(string(rune('a'+i)))] = float64(i + 1)
		if i%2 == 0 {
			c[crp.ReplicaID(string(rune('a'+i)))] = float64(13 - i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dot := crp.Dot(a, c)
		if dot != 0 {
			_ = dot / (a.Norm() * c.Norm())
		}
	}
}

func BenchmarkCDNRedirect(b *testing.B) {
	sc := benchScenario(b)
	network := sc.Fleet.Members()[0]
	name := network.Names()[0]
	clients := sc.Clients
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := network.Redirect(name, clients[i%len(clients)], time.Duration(i)*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRTTModel(b *testing.B) {
	sc := benchScenario(b)
	hosts := sc.Clients
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sc.Topo.RTTMs(hosts[i%len(hosts)], hosts[(i*7+1)%len(hosts)], time.Duration(i)*time.Second)
	}
}

func BenchmarkMeridianQuery(b *testing.B) {
	sc := benchScenario(b)
	overlay := sc.Meridian
	entry := overlay.Members()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := overlay.ClosestTo(entry, sc.Clients[i%len(sc.Clients)], 0)
		if err != nil {
			b.Fatal(err)
		}
	}
}
