package faults

import (
	"sort"
	"time"
)

// Ground-truth event kinds compiled from a scenario's CDN faults. They
// deliberately match the drift detector's alarm kinds so a scorer can join
// detections against the schedule without a translation table.
const (
	// EventRemap marks an instant where the CDN mapping identity changes
	// abruptly: a flap window opening, a flap period boundary, or a
	// freeze/flap window thawing back to the natural epoch rotation.
	EventRemap = "remap"
	// EventStale marks a window during which the CDN mapping is pinned
	// while the natural epoch rotation would have moved on — the mapping
	// is serving stale state for the whole window.
	EventStale = "stale"
)

// TruthEvent is one ground-truth CDN mapping event. At is the earliest
// instant the event is observable on the redirection stream; Deadline is
// the last instant a detection may be credited to it. Both are offsets on
// the same virtual clock the fault windows use.
type TruthEvent struct {
	Kind string `json:"kind"`
	// CDN is the fault's namespace scope; empty means the event applies to
	// every CDN the plane fronts.
	CDN string `json:"cdn,omitempty"`
	// Fault indexes the originating fault in Scenario.Faults.
	Fault    int      `json:"fault"`
	At       Duration `json:"at"`
	Deadline Duration `json:"deadline"`
}

// EventSchedule is the compiled ground-truth event list for one scenario,
// stable and JSON-serializable so experiment reports can embed it. Events
// are sorted by (At, Fault, Kind).
type EventSchedule struct {
	Seed     uint64       `json:"seed"`
	EpochLen Duration     `json:"epochLen"`
	Horizon  Duration     `json:"horizon"`
	Events   []TruthEvent `json:"events"`
}

// CDNEventSchedule compiles the scenario's cdn-freeze/cdn-flap faults into
// the ground-truth mapping events a detector watching the redirection
// stream should report, mirroring the Plane's mapping-hook semantics
// exactly:
//
//   - cdn-flap opens with an abrupt remap at Start. With Period > 0 it
//     remaps again at every period boundary inside the window; with
//     Period == 0 it pins one random epoch identity for the whole window.
//     Either way the hook leaves the epoch's time meaning (epochStart)
//     advancing naturally, so load and monitor noise keep evolving — a
//     flapped mapping shifts but never freezes, hence no stale window.
//   - cdn-freeze pins both the epoch identity and its time meaning to the
//     epoch containing Start — the mapping literally stops changing. Once
//     the natural rotation passes the first epoch boundary after Start the
//     pin becomes observable twice over: the served aggregate drifts from
//     the rotating-epoch mixture onto the single pinned epoch (a remap
//     shift), and the mapping is stale for the rest of the window.
//   - Both kinds thaw with a remap when the window closes before the
//     horizon (the pinned identity snaps back to the natural epoch).
//
// A remap event's Deadline is the next event boundary of the same fault
// (the window close for the last one); a thaw remap's Deadline is the
// horizon. A stale event's window is [first epoch boundary after Start,
// window close). epochLen is the CDN's mapping epoch (cdn.MappingEpoch)
// and horizon clips open-ended windows.
func (s Scenario) CDNEventSchedule(epochLen, horizon time.Duration) EventSchedule {
	sched := EventSchedule{
		Seed:     s.Seed,
		EpochLen: Duration(epochLen),
		Horizon:  Duration(horizon),
	}
	if epochLen <= 0 || horizon <= 0 {
		return sched
	}
	for i := range s.Faults {
		f := &s.Faults[i]
		if f.Kind != CDNFreeze && f.Kind != CDNFlap {
			continue
		}
		start := f.Start.D()
		if start < 0 || start >= horizon {
			continue
		}
		stop := horizon
		if f.Stop > 0 && f.Stop.D() < horizon {
			stop = f.Stop.D()
		}
		if stop <= start {
			continue
		}
		add := func(kind string, at, deadline time.Duration) {
			sched.Events = append(sched.Events, TruthEvent{
				Kind: kind, CDN: f.CDN, Fault: i,
				At: Duration(at), Deadline: Duration(deadline),
			})
		}
		// First natural epoch boundary strictly after the window opens:
		// the instant a pinned mapping starts lagging the rotation.
		staleAt := (start/epochLen + 1) * epochLen
		switch f.Kind {
		case CDNFlap:
			if f.Period > 0 {
				for t := start; t < stop; t += f.Period.D() {
					deadline := t + f.Period.D()
					if deadline > stop {
						deadline = stop
					}
					add(EventRemap, t, deadline)
				}
			} else {
				add(EventRemap, start, stop)
			}
		case CDNFreeze:
			if staleAt < stop {
				add(EventRemap, staleAt, stop)
				add(EventStale, staleAt, stop)
			}
		}
		if stop < horizon {
			add(EventRemap, stop, horizon)
		}
	}
	sort.Slice(sched.Events, func(a, b int) bool {
		x, y := sched.Events[a], sched.Events[b]
		if x.At != y.At {
			return x.At < y.At
		}
		if x.Fault != y.Fault {
			return x.Fault < y.Fault
		}
		return x.Kind < y.Kind
	})
	return sched
}
