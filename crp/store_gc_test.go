package crp

import (
	"testing"
	"time"
)

// Tombstone GC removes a record from the set the anti-entropy digest sums
// over, so it must publish like any other mutation: bump the shard version
// and take the record's word out of the shard digest. Two peers GCing on
// different schedules would otherwise compare stale words and either re-sync
// shards that agree or, worse, never re-sync shards that differ.
func TestGCTombstonesRepublishesDigest(t *testing.T) {
	base := time.Unix(1_000_000, 0)
	svc := NewService()
	svc.SetClock(func() time.Time { return base })

	if err := svc.Observe("node-a", base, "R1"); err != nil {
		t.Fatal(err)
	}
	svc.Forget("node-a") // tombstone stamped at base
	shard := svc.ShardOf("node-a")

	d1 := svc.ShardDigests()
	if d2 := svc.ShardDigests(); d2[shard] != d1[shard] {
		t.Fatalf("digest unstable without mutations: %x then %x", d1[shard], d2[shard])
	}

	// A horizon before the deletion time reclaims nothing and must publish
	// nothing: no version movement, digest unchanged.
	v := svc.store.version.Load()
	if n := svc.GCTombstones(base.Add(-time.Hour)); n != 0 {
		t.Fatalf("GC before horizon reclaimed %d tombstones", n)
	}
	if got := svc.store.version.Load(); got != v {
		t.Fatalf("empty GC bumped store version %d -> %d", v, got)
	}
	if d := svc.ShardDigests(); d[shard] != d1[shard] {
		t.Fatalf("empty GC changed digest: %x -> %x", d1[shard], d[shard])
	}

	// Reclaiming the tombstone removes its metadata, so the digest must
	// change.
	if n := svc.GCTombstones(base.Add(time.Hour)); n != 1 {
		t.Fatalf("GC reclaimed %d tombstones, want 1", n)
	}
	if got := svc.store.version.Load(); got != v+1 {
		t.Fatalf("GC bumped store version %d -> %d, want %d", v, got, v+1)
	}
	d3 := svc.ShardDigests()
	if d3[shard] == d1[shard] {
		t.Fatalf("digest unchanged after GC reclaimed the shard's tombstone")
	}

	metas, err := svc.ShardMetas(shard)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 0 {
		t.Fatalf("shard metadata not empty after GC: %+v", metas)
	}
}

// The maintained digest must track every metadata mutation class, not just
// GC: observe, forget and remote delta application each move it.
func TestShardDigestCacheTracksMutations(t *testing.T) {
	base := time.Unix(2_000_000, 0)
	svc := NewService()
	svc.SetClock(func() time.Time { return base })

	if err := svc.Observe("node-b", base, "R1"); err != nil {
		t.Fatal(err)
	}
	shard := svc.ShardOf("node-b")
	d1 := svc.ShardDigests()[shard]

	if err := svc.Observe("node-b", base.Add(time.Second), "R2"); err != nil {
		t.Fatal(err)
	}
	d2 := svc.ShardDigests()[shard]
	if d2 == d1 {
		t.Fatal("digest unchanged after a version-advancing observe")
	}

	svc.Forget("node-b")
	d3 := svc.ShardDigests()[shard]
	if d3 == d2 {
		t.Fatal("digest unchanged after forget")
	}

	applied, err := svc.ApplyDelta(NodeDelta{
		NodeMeta: NodeMeta{Node: "node-b", Origin: "peer-1", Version: 100},
		Probes:   []Probe{{At: base, Replicas: []ReplicaID{"R3"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Fatal("superseding delta not applied")
	}
	if d4 := svc.ShardDigests()[shard]; d4 == d3 {
		t.Fatal("digest unchanged after remote delta application")
	}
}
