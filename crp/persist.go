package crp

import (
	"encoding/json"
	"io"
	"time"
)

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

// WriteSnapshot writes every node's probe window as JSON, sorted by node:
// the meta-free comparison form (no origins or versions), so a
// gossip mesh and one service fed the merged stream compare byte-equal.
// Nothing reads it back; crpd persists the gossip delta stream.
func (s *Service) WriteSnapshot(w io.Writer) error {
	snap := serviceSnapshot{Version: snapshotVersion}
	for _, r := range records(s.store.shards) {
		snap.Nodes = append(snap.Nodes, nodeSnapshot{Node: r.Node, Probes: r.t.Probes()})
	}
	return json.NewEncoder(w).Encode(snap)
}
