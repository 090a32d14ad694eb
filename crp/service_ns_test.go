package crp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

var nsBase = time.Unix(1_810_000_000, 0).UTC()

// feedStream replays one deterministic observation stream into any number of
// services, so bit-level comparisons start from identical inputs.
func feedStream(t *testing.T, seed int64, ns Namespace, nodes, probes int, svcs ...*Service) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nodes; i++ {
		node := NodeID(fmt.Sprintf("n%03d", i))
		for k := 0; k < probes; k++ {
			at := nsBase.Add(time.Duration(i*probes+k) * time.Minute)
			ids := []ReplicaID{
				Qualify(ns, ReplicaID(fmt.Sprintf("r%02d", rng.Intn(20)))),
				Qualify(ns, ReplicaID(fmt.Sprintf("r%02d", rng.Intn(20)))),
			}
			for _, svc := range svcs {
				if err := svc.Observe(node, at, ids...); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestSingleNamespacePinAcrossStoreShapes is the back-compat pin the
// refactor is gated on: a service holding a single namespace — the default
// (pre-refactor IDs) or one named CDN — answers and serializes bit-identically
// with the fusion kernel enabled or disabled, under all three store shapes.
// Ratio maps, compiled-vector query results, snapshot bytes and shard delta
// digests all compare equal.
func TestSingleNamespacePinAcrossStoreShapes(t *testing.T) {
	for _, shape := range storeShapes {
		for _, ns := range []Namespace{DefaultNamespace, "cdnA"} {
			name := shape.name + "/named"
			if ns == DefaultNamespace {
				name = shape.name + "/default-ns"
			}
			t.Run(name, func(t *testing.T) {
				plain := NewServiceWithStore(shape.cfg, WithWindow(12))
				fused := NewServiceWithStore(shape.cfg, WithWindow(12))
				if err := fused.EnableFusion(FusionConfig{}); err != nil {
					t.Fatal(err)
				}
				feedStream(t, 42, ns, 24, 6, plain, fused)

				nodes := plain.Nodes()
				if len(nodes) != 24 {
					t.Fatalf("plain service holds %d nodes", len(nodes))
				}
				for _, node := range nodes {
					pm, err1 := plain.RatioMap(node)
					fm, err2 := fused.RatioMap(node)
					if err1 != nil || err2 != nil {
						t.Fatalf("RatioMap(%s): %v / %v", node, err1, err2)
					}
					if len(pm) != len(fm) {
						t.Fatalf("RatioMap(%s) sizes diverge", node)
					}
					for r, v := range pm {
						if fm[r] != v {
							t.Fatalf("RatioMap(%s)[%s] = %v vs %v", node, r, fm[r], v)
						}
					}
					pk, err1 := plain.TopK(node, nil, 8)
					fk, err2 := fused.TopK(node, nil, 8)
					if err1 != nil || err2 != nil {
						t.Fatalf("TopK(%s): %v / %v", node, err1, err2)
					}
					if len(pk) != len(fk) {
						t.Fatalf("TopK(%s) lengths diverge", node)
					}
					for i := range pk {
						if pk[i] != fk[i] {
							t.Fatalf("TopK(%s)[%d] = %+v vs %+v", node, i, fk[i], pk[i])
						}
					}
				}
				for _, pair := range [][2]NodeID{{"n000", "n001"}, {"n005", "n017"}} {
					ps, err1 := plain.Similarity(pair[0], pair[1])
					fs, err2 := fused.Similarity(pair[0], pair[1])
					if err1 != nil || err2 != nil {
						t.Fatalf("Similarity%v: %v / %v", pair, err1, err2)
					}
					if ps != fs {
						t.Fatalf("Similarity%v = %v vs %v", pair, fs, ps)
					}
				}

				var pb, fb bytes.Buffer
				if err := plain.WriteSnapshot(&pb); err != nil {
					t.Fatal(err)
				}
				if err := fused.WriteSnapshot(&fb); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(pb.Bytes(), fb.Bytes()) {
					t.Fatal("snapshot bytes diverge with fusion enabled")
				}

				pd, fd := plain.ShardDigests(), fused.ShardDigests()
				if len(pd) != len(fd) {
					t.Fatalf("shard digest widths diverge: %d vs %d", len(pd), len(fd))
				}
				for i := range pd {
					if pd[i] != fd[i] {
						t.Fatalf("shard %d digest diverges", i)
					}
				}

				for _, node := range nodes {
					pdelta, ok1 := plain.ExportDelta(node)
					fdelta, ok2 := fused.ExportDelta(node)
					if !ok1 || !ok2 {
						t.Fatalf("ExportDelta(%s) = %v / %v", node, ok1, ok2)
					}
					pj, _ := json.Marshal(pdelta)
					fj, _ := json.Marshal(fdelta)
					if !bytes.Equal(pj, fj) {
						t.Fatalf("delta for %s diverges:\n%s\n%s", node, pj, fj)
					}
				}
			})
		}
	}
}

// TestCrossNamespaceIsolation: probes under CDN A must not perturb CDN B's
// scoped signal. Ratios are fractions of the node's whole probe history, so
// growing A's history rescales B's sub-map uniformly — the invariants are
// the sub-vector's direction, not its magnitude: the replica set, the
// within-namespace proportions, the scoped similarity and the scoped
// ranking order all stay put while A's history keeps growing.
func TestCrossNamespaceIsolation(t *testing.T) {
	svc := NewService()
	if err := svc.EnableFusion(FusionConfig{}); err != nil {
		t.Fatal(err)
	}
	feedStream(t, 1, "cdnA", 12, 4, svc)
	feedStream(t, 2, "cdnB", 12, 4, svc)

	type view struct {
		m   RatioMap
		sim float64
		top []Scored
	}
	capture := func() view {
		m, err := svc.RatioMapIn("cdnB", "n003")
		if err != nil {
			t.Fatal(err)
		}
		sim, err := svc.SimilarityIn("cdnB", "n003", "n007")
		if err != nil {
			t.Fatal(err)
		}
		top, err := svc.TopKIn("cdnB", "n003", nil, 5)
		if err != nil {
			t.Fatal(err)
		}
		return view{m, sim, top}
	}

	const tol = 1e-12
	before := capture()
	feedStream(t, 3, "cdnA", 12, 6, svc) // keep hammering A
	after := capture()

	if len(before.m) != len(after.m) {
		t.Fatalf("cdnB sub-map size changed: %d -> %d", len(before.m), len(after.m))
	}
	bSum, aSum := before.m.Sum(), after.m.Sum()
	for r, v := range before.m {
		if got := after.m[r]; abs(got/aSum-v/bSum) > tol {
			t.Fatalf("cdnB proportion for %s changed: %v -> %v", r, v/bSum, got/aSum)
		}
	}
	if abs(before.sim-after.sim) > tol {
		t.Fatalf("cdnB-scoped similarity changed: %v -> %v", before.sim, after.sim)
	}
	if len(before.top) != len(after.top) {
		t.Fatalf("cdnB-scoped TopK length changed")
	}
	for i := range before.top {
		if before.top[i].Node != after.top[i].Node {
			t.Fatalf("cdnB-scoped TopK[%d] node changed: %+v -> %+v", i, before.top[i], after.top[i])
		}
		if abs(before.top[i].Similarity-after.top[i].Similarity) > tol {
			t.Fatalf("cdnB-scoped TopK[%d] similarity changed: %+v -> %+v", i, before.top[i], after.top[i])
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestScopedQueriesValidateNamespace: every *In method rejects a malformed
// namespace up front.
func TestScopedQueriesValidateNamespace(t *testing.T) {
	svc := NewService()
	bad := Namespace("oops!sep")
	if _, err := svc.RatioMapIn(bad, "n"); err == nil {
		t.Fatal("RatioMapIn accepted a bad namespace")
	}
	if _, err := svc.SimilarityIn(bad, "a", "b"); err == nil {
		t.Fatal("SimilarityIn accepted a bad namespace")
	}
	if _, err := svc.TopKIn(bad, "c", nil, 3); err == nil {
		t.Fatal("TopKIn accepted a bad namespace")
	}
}
