package main

import (
	"os"
	"testing"
	"time"

	"repro/crp"
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
	if err := saveState(svc, path); err != nil {
		t.Fatalf("saveState: %v", err)
	}

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

func TestPeersFlagRequiresGossipListen(t *testing.T) {
	err := run([]string{"-peers", "127.0.0.1:9999"})
	if err == nil || err.Error() != "-peers requires -gossip-listen" {
		t.Fatalf("err = %v, want the -peers/-gossip-listen coupling error", err)
	}
}

func TestAggregateFlagValidation(t *testing.T) {
	for _, bad := range []string{"-1", "33", "64"} {
		if err := run([]string{"-aggregate", bad}); err == nil {
			t.Errorf("-aggregate %s accepted", bad)
		}
	}
}
