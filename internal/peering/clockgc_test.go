package peering

import (
	"testing"
	"time"

	"repro/crp"
	"repro/internal/obs"
)

// Tombstone GC must run on the engine's injected clock, not on whatever
// timestamp the Tick caller holds. Deletion tombstones are stamped by the
// store's clock (Config.Now), so an engine on a virtual clock whose Tick is
// driven with wall time — a driver loop calling Tick(time.Now()) is the
// obvious shape — would compute a GC horizon epochs ahead of every virtual
// timestamp and reclaim live tombstones before peers learn of the forget.
func TestTombstoneGCUsesInjectedClock(t *testing.T) {
	mesh := NewMemMesh()
	vt := time.Unix(1_000, 0) // virtual epoch, decades behind wall time
	svc := crp.NewServiceWithStore(crp.StoreConfig{Shards: 4})
	p, err := New(Config{
		Self: "vclk-self", Addr: "vclk-self", Service: svc,
		Now:      func() time.Time { return vt },
		Registry: obs.NewRegistry(), Resolve: mesh.Resolve, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Attach(mesh.Conn("vclk-self"))

	if err := svc.Observe("node-v", vt, "R1"); err != nil {
		t.Fatal(err)
	}
	svc.Forget("node-v") // tombstone stamped at vt by the injected clock

	// A wall-time Tick: rumor/digest pacing may use it freely, but the GC
	// horizon must not — the tombstone is 10 minutes old on the virtual
	// timeline, i.e. live.
	p.Tick(time.Now())
	if d, ok := svc.ExportDelta("node-v"); !ok || !d.Deleted {
		t.Fatalf("wall-time Tick GC'd a live tombstone (ok=%v, deleted=%v)", ok, d.Deleted)
	}
	if got := p.Stats().TombstonesGCed; got != 0 {
		t.Fatalf("tombstones_gced = %d after wall-time Tick, want 0", got)
	}

	// Once the virtual clock passes the horizon the tombstone is fair game,
	// whatever timestamp drives the Tick.
	vt = vt.Add(11 * time.Minute)
	p.Tick(time.Unix(0, 0))
	if _, ok := svc.ExportDelta("node-v"); ok {
		t.Fatal("tombstone survived GC past the virtual-clock horizon")
	}
	if got := p.Stats().TombstonesGCed; got != 1 {
		t.Fatalf("tombstones_gced = %d, want 1", got)
	}
}
