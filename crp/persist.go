package crp

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Service snapshots: a CRP deployment accumulates redirection history over
// hours (the paper's bootstrap time is ~100 minutes), so a restarting
// service daemon must not start cold. Snapshots serialize every node's
// probe history; restoring replays the probes through fresh trackers, so the
// window bound is re-applied under the restoring service's configuration.

// Probe is one recorded redirection observation.
type Probe struct {
	At       time.Time   `json:"at"`
	Replicas []ReplicaID `json:"replicas"`
}

// Probes returns the tracker's current window of observations in recorded
// order. The result is an independent copy.
func (t *Tracker) Probes() []Probe {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Probe, len(t.probes))
	for i, p := range t.probes {
		replicas := make([]ReplicaID, len(p.replicas))
		copy(replicas, p.replicas)
		out[i] = Probe{At: p.at, Replicas: replicas}
	}
	return out
}

type nodeSnapshot struct {
	Node   NodeID  `json:"node"`
	Probes []Probe `json:"probes"`
}

type serviceSnapshot struct {
	Version int            `json:"version"`
	Nodes   []nodeSnapshot `json:"nodes"`
}

const snapshotVersion = 1

// WriteSnapshot serializes the service's full observation state.
func (s *Service) WriteSnapshot(w io.Writer) error {
	snap := serviceSnapshot{Version: snapshotVersion}
	for _, r := range records(s.store.shards, live) {
		snap.Nodes = append(snap.Nodes, nodeSnapshot{Node: r.Node, Probes: r.t.Probes()})
	}
	return json.NewEncoder(w).Encode(snap)
}

// LoadSnapshot merges a snapshot into the service, replaying each node's
// probes through its tracker. Existing nodes keep their current history and
// receive the snapshot's probes on top.
func (s *Service) LoadSnapshot(r io.Reader) error {
	var snap serviceSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("crp: decode snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("crp: unsupported snapshot version %d", snap.Version)
	}
	for _, n := range snap.Nodes {
		if n.Node == "" {
			return fmt.Errorf("crp: snapshot contains a node with an empty ID")
		}
		for _, p := range n.Probes {
			if err := s.Observe(n.Node, p.At, p.Replicas...); err != nil {
				return err
			}
		}
	}
	return nil
}
