package crp

import (
	"encoding/json"
	"io"
	"slices"
	"time"
)

// Probe is one recorded redirection observation. A tracker keeps the
// instant of At, not its Location or monotonic clock reading: Probes returns
// it in UTC without the monotonic reading, Equal to what was observed.
type Probe struct {
	At       time.Time   `json:"at"`
	Replicas []ReplicaID `json:"replicas"`
}

// Probes returns the tracker's current window of observations in recorded
// order, each At rebuilt from the observed instant's Unix seconds and
// nanoseconds in UTC, as binwire.Dec.Time decodes a peer's: a time.Local
// rebuild east of UTC would turn 9999-12-31T23:59Z into a year JSON refuses.
// The result is an independent copy.
func (t *Tracker) Probes() []Probe {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Probe, len(t.probes))
	ids := slices.Clone(t.ids)
	for i, p := range t.probes {
		// A full slice expression, so an append to one probe's replicas
		// cannot write over the next probe's.
		out[i] = Probe{At: time.Unix(p.sec, int64(p.nsec)).UTC(), Replicas: ids[:p.n:p.n]}
		ids = ids[p.n:]
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
