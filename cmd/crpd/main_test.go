package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/crp"
	"repro/internal/obs"
	"repro/internal/peering"
)

func seedService(t *testing.T) *crp.Service {
	t.Helper()
	svc := crp.NewService(crp.WithWindow(10))
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		at := base.Add(time.Duration(i) * time.Minute)
		for node, reps := range map[string][]crp.ReplicaID{
			"west-1": {"rw1", "rw2"},
			"west-2": {"rw1", "rw2"},
			"east-1": {"re1", "re2"},
		} {
			if err := svc.Observe(crp.NodeID(node), at, reps...); err != nil {
				t.Fatalf("observe: %v", err)
			}
		}
	}
	return svc
}

func TestStateSaveAndLoad(t *testing.T) {
	svc := seedService(t)
	path := t.TempDir() + "/state.json"
	mustSave(t, svc, path)

	restored := crp.NewService(crp.WithWindow(10))
	if err := loadState(restored, path); err != nil {
		t.Fatalf("loadState: %v", err)
	}
	if got, want := len(restored.Nodes()), len(svc.Nodes()); got != want {
		t.Errorf("restored %d nodes, want %d", got, want)
	}
	sim, err := restored.Similarity("west-1", "west-2")
	if err != nil {
		t.Fatal(err)
	}
	if sim <= 0 {
		t.Errorf("restored similarity = %v, want > 0", sim)
	}
}

// TestStateSaveFailureLeavesNoTmp: a save whose rename fails (the target is
// a non-empty directory) reports the error and removes its tmp file.
func TestStateSaveFailureLeavesNoTmp(t *testing.T) {
	path := t.TempDir() + "/state"
	if err := os.MkdirAll(path+"/occupied", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := saveState(seedService(t), path); err == nil {
		t.Fatal("saveState over a non-empty directory succeeded")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind: stat err = %v", err)
	}
}

func TestLoadStateMissingFileIsFirstRun(t *testing.T) {
	svc := crp.NewService()
	if err := loadState(svc, t.TempDir()+"/nonexistent.json"); err != nil {
		t.Errorf("missing state file should be tolerated: %v", err)
	}
}

func TestLoadStateCorruptFileFails(t *testing.T) {
	path := t.TempDir() + "/bad.json"
	if err := os.WriteFile(path, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := loadState(crp.NewService(), path); err == nil {
		t.Error("corrupt state file accepted")
	}
}

// TestStateRestoresReplicationMetadata: a restored service holds the saved
// records exactly — origins, versions and probe windows — so
// its shard digests and metadata equal the source's and it loses no
// last-writer-wins tie it would have won before the restart.
func TestStateRestoresReplicationMetadata(t *testing.T) {
	for name, shape := range map[string]crp.StoreConfig{"single": {Shards: 1}, "defaults": {}} {
		t.Run(name, func(t *testing.T) {
			src := crp.NewServiceWithStore(shape, crp.WithWindow(10))
			src.SetOrigin("daemon-a")
			now := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
			for i := 0; i < 12; i++ {
				node := crp.NodeID([]string{"west-1", "west-2", "east-1", "peer"}[i%4])
				if err := src.Observe(node, now.Add(time.Duration(i)*time.Minute), "r1", crp.ReplicaID(node)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := src.ApplyDelta(crp.NodeDelta{NodeMeta: crp.NodeMeta{Node: "peer", Origin: "daemon-b", Version: 9},
				Probes: []crp.Probe{{At: now, Replicas: []crp.ReplicaID{"r2"}}}}); err != nil {
				t.Fatal(err)
			}

			path := t.TempDir() + "/state"
			mustSave(t, src, path)
			dst := crp.NewServiceWithStore(shape, crp.WithWindow(10))
			if err := loadState(dst, path); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(src.ShardDigests(), dst.ShardDigests()) {
				t.Error("restored shard digests differ from the source's")
			}
			for i := 0; i < src.ShardCount(); i++ {
				want, _ := src.ShardMetas(i)
				got, _ := dst.ShardMetas(i)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("shard %d metas = %+v, want %+v", i, got, want)
				}
				for _, m := range want {
					w, _ := src.ExportDelta(m.Node)
					g, _ := dst.ExportDelta(m.Node)
					if !reflect.DeepEqual(w.NodeMeta, g.NodeMeta) || len(w.Probes) != len(g.Probes) {
						t.Fatalf("record %s restored as %+v, want %+v", m.Node, g, w)
					}
				}
			}
			if got, ok := dst.ExportDelta("peer"); !ok || got.Origin != "daemon-b" || got.Version != 9 {
				t.Fatalf("a peer's record restored as %+v, %v; want daemon-b's version 9", got, ok)
			}
		})
	}
}

// TestDemotedClientSurvivesRestart: with -aggregate keying, a client demoted
// before a save is per-client after the restore — its next probe moves its
// own ratio map and its /24 group absorbs nothing.
func TestDemotedClientSurvivesRestart(t *testing.T) {
	aggregating := func() *crp.Service {
		svc := crp.NewService(crp.WithWindow(10))
		if err := svc.EnableAggregation(crp.AggregatorConfig{KeyOf: crp.PrefixKeyFunc(24), MonitorEvery: 1}); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	src := aggregating()
	for i := 1; i <= 10; i++ {
		for j := 0; j < 5; j++ {
			if err := src.Observe(crp.NodeID(fmt.Sprintf("10.0.0.%d", i)), base, "r1"); err != nil {
				t.Fatal(err)
			}
		}
	}
	const div = crp.NodeID("10.0.0.99")
	for i := 0; src.AggregateInfo().Demoted == 0; i++ {
		if i == 20 {
			t.Fatal("the divergent client was never demoted")
		}
		if err := src.Observe(div, base.Add(time.Duration(i)*time.Second), "r9"); err != nil {
			t.Fatal(err)
		}
	}

	path := t.TempDir() + "/state"
	mustSave(t, src, path)
	dst := aggregating()
	if err := loadState(dst, path); err != nil {
		t.Fatal(err)
	}
	absorbed := obs.Default().Counter("crp.aggregate.observes")
	before := absorbed.Value()
	if err := dst.Observe(div, base.Add(time.Hour), "r7"); err != nil {
		t.Fatal(err)
	}
	if got := absorbed.Value() - before; got != 0 {
		t.Fatalf("the group absorbed %d probes of the restored demoted client", got)
	}
	m, err := dst.RatioMap(div)
	if err != nil || m["r7"] == 0 || m["r9"] == 0 {
		t.Fatalf("RatioMap = %v, %v; want the restored r9 history plus the new r7 probe", m, err)
	}
}

// mustSave is saveState that fails t on an error or a record left out.
func mustSave(t *testing.T, svc *crp.Service, path string) {
	t.Helper()
	if err := saveState(svc, path); err != nil {
		t.Fatalf("saveState: %v", err)
	}
}

// failAt is a writer that dies after k bytes, as a crash mid-write would.
type failAt struct {
	w io.Writer
	k int
}

func (f *failAt) Write(p []byte) (int, error) {
	if len(p) <= f.k {
		f.k -= len(p)
		return f.w.Write(p)
	}
	n, _ := f.w.Write(p[:f.k])
	f.k = 0
	return n, errors.New("injected crash")
}

// TestStateSaveCrashKeepsPreviousCheckpoint kills saveState's write step at
// every byte offset of the new checkpoint: each time the previous file
// stays in place, restores to the previous digests and leaves no tmp file.
func TestStateSaveCrashKeepsPreviousCheckpoint(t *testing.T) {
	prev := seedService(t)
	path := t.TempDir() + "/state"
	mustSave(t, prev, path)
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	next := seedService(t)
	if err := next.Observe("north-1", time.Date(2026, 7, 2, 0, 0, 0, 0, time.UTC), "rn1"); err != nil {
		t.Fatal(err)
	}
	if err := next.Observe("east-1", time.Date(2026, 7, 2, 0, 0, 0, 0, time.UTC), "re9"); err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if skipped, err := peering.WriteState(&full, next); err != nil || skipped != nil {
		t.Fatal(err, skipped)
	}
	for k := 0; k < full.Len(); k++ {
		err := replaceFile(path, func(w io.Writer) error {
			_, err := peering.WriteState(&failAt{w: w, k: k}, next)
			return err
		})
		if err == nil {
			t.Fatalf("crash at byte %d: save reported success", k)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
			t.Fatalf("crash at byte %d: the previous checkpoint changed", k)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("crash at byte %d: tmp file left behind (stat err %v)", k, err)
		}
		restored := crp.NewService(crp.WithWindow(10))
		if err := loadState(restored, path); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(restored.ShardDigests(), prev.ShardDigests()) {
			t.Fatalf("crash at byte %d: restore differs from the previous checkpoint", k)
		}
	}
}

// TestStateSaveLeavesOutUnwritableRecord: under -window 0 a tracker can
// outgrow one delta; the save names that record in its error, leaves it out,
// and writes the checkpoint with every other record.
func TestStateSaveLeavesOutUnwritableRecord(t *testing.T) {
	seed := seedService(t)
	unbounded := crp.NewService() // -window 0
	for _, node := range seed.Nodes() {
		d, _ := seed.ExportDelta(node)
		for _, p := range d.Probes {
			if err := unbounded.Observe(node, p.At, p.Replicas...); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i <= peering.MaxProbesPerDelta; i++ {
		if err := unbounded.Observe("huge", base.Add(time.Duration(i)*time.Second), "r1"); err != nil {
			t.Fatal(err)
		}
	}
	path := t.TempDir() + "/state"
	if err := saveState(unbounded, path); err == nil || !strings.Contains(err.Error(), `"huge"`) {
		t.Fatalf("saveState err = %v, want one naming node \"huge\"", err)
	}
	restored := crp.NewService(crp.WithWindow(10))
	if err := loadState(restored, path); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Nodes(), seed.Nodes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored nodes %v, want %v", got, want)
	}
}

// TestFlagRequiresEnabler: a flag that only tunes another flag's feature is
// refused, by name, when set without it.
func TestFlagRequiresEnabler(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-peers", "127.0.0.1:9999"}, "-peers requires -gossip-listen"},
		{[]string{"-gossip-interval", "2s"}, "-gossip-interval requires -gossip-listen"},
		{[]string{"-daemon-id", "x"}, "-daemon-id requires -gossip-listen"},
		{[]string{"-fusion-weights", "cdnA=1"}, "-fusion-weights requires -fusion"},
		{[]string{"-fusion=false", "-fusion-weights", "cdnA=1"}, "-fusion-weights requires -fusion"},
		{[]string{"-drift-interval", "5s"}, "-drift-interval requires -drift"},
	} {
		if err := run(tc.args); err == nil || err.Error() != tc.want {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

func TestAggregateFlagValidation(t *testing.T) {
	for _, bad := range []string{"-1", "33", "64"} {
		err := run([]string{"-aggregate", bad})
		if err == nil || !strings.Contains(err.Error(), "0..32 (0 = off)") {
			t.Errorf("-aggregate %s: err = %v, want the 0..32 range error", bad, err)
		}
	}
}

// TestFlagBounds runs crpd up to its listen step: the unusable -listen
// address makes every accepted configuration fail there, after all flag
// checks, instead of serving forever.
func TestFlagBounds(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string // "" = accepted: run fails at listen
	}{
		{[]string{"-window", "-5"}, "-window -5"},
		{[]string{"-window", "0"}, ""},
		{[]string{"-window", "10"}, ""},
		{[]string{"-aggregate", "0"}, ""},
		{[]string{"-aggregate", "32"}, ""},
		{[]string{"-fusion", "-fusion-weights", "cdnA=NaN"}, "not finite"},
		{[]string{"-fusion", "-fusion-weights", "cdnA=+Inf"}, "not finite"},
		{[]string{"-fusion", "-fusion-weights", "cdnA=-Inf"}, "not finite"},
		{[]string{"-fusion", "-fusion-weights", "cdnA=1abc"}, "bad weight"},
		{[]string{"-fusion", "-fusion-weights", "cdnA="}, "bad weight"},
		{[]string{"-fusion", "-fusion-weights", "cdnA=0.5,cdnB=0,cdnC=-1"}, ""},
		{[]string{"-timeout", "0"}, "-timeout 0s: must be > 0"},
		{[]string{"-timeout", "-1s"}, "-timeout -1s: must be > 0"},
		{[]string{"-timeout", "1s"}, ""},
		{[]string{"-gossip-interval", "0"}, "-gossip-interval 0s: must be > 0"},
		{[]string{"-gossip-interval", "-1s"}, "-gossip-interval -1s: must be > 0"},
		{[]string{"-drift", "-drift-interval", "-5s"}, "-drift-interval -5s: must be > 0"},
		{[]string{"-drift", "-drift-interval", "0"}, "-drift-interval 0s: must be > 0"},
		{[]string{"-drift", "-drift-interval", "1s"}, ""},
		{[]string{"-drift", "-drift-config", "drift.json"}, "flag provided but not defined: -drift-config"},
		{[]string{"-cheap-workers", "-1"}, "-cheap-workers -1: must be >= 0"},
		{[]string{"-cheap-workers", "0"}, ""},
		{[]string{"-heavy-workers", "-1"}, "-heavy-workers -1: must be >= 0"},
		{[]string{"-heavy-workers", "0"}, ""},
		{[]string{"-queue", "-1"}, "-queue -1: must be >= 0"},
		{[]string{"-queue", "0"}, ""},
	} {
		err := run(append(tc.args, "-listen", "no-port"))
		if err == nil {
			t.Fatalf("%v: run returned nil", tc.args)
		}
		if tc.wantErr == "" {
			if !strings.Contains(err.Error(), "no-port") {
				t.Errorf("%v: err = %v, want only the listen failure", tc.args, err)
			}
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.wantErr)
		}
	}
}

// TestFailedStartupReleasesGossipPort fails crpd at its listen step, after
// peering and the drift monitor have started: the teardown must release the
// gossip socket, so the port can be bound again at once.
func TestFailedStartupReleasesGossipPort(t *testing.T) {
	probe, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.LocalAddr().String()
	probe.Close()

	err = run([]string{"-gossip-listen", addr, "-drift", "-listen", "no-port"})
	if err == nil || !strings.Contains(err.Error(), "no-port") {
		t.Fatalf("run: err = %v, want the listen failure", err)
	}
	again, err := net.ListenPacket("udp", addr)
	if err != nil {
		t.Fatalf("gossip port %s still held after run returned: %v", addr, err)
	}
	again.Close()
}
