package experiment

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/crp"
	"repro/internal/cdn"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// World's three operations — Probe, TruthRTTMs, TruthOrder — are what every
// experiment in this package stands on; these tests pin them once.

var smallWorld = WorldParams{Seed: 3, NumClients: 20, NumCandidates: 30, NumReplicas: 80}

func newTestWorld(t *testing.T, members ...cdn.Config) *World {
	t.Helper()
	w, err := NewWorld(smallWorld, members...)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	return w
}

func attach(t *testing.T, w *World, fs ...faults.Fault) *faults.Plane {
	t.Helper()
	plane, err := faults.New(w.Topo, faults.Scenario{Seed: 11, Faults: fs}, faults.WithRegistry(obs.NewRegistry()))
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	w.AttachFaults(plane)
	return plane
}

// collect runs one probe step and returns its lookups.
func collect(t *testing.T, w *World, host netsim.HostID, at time.Duration, pick int) []Lookup {
	t.Helper()
	var out []Lookup
	if err := w.Probe(host, at, pick, func(l Lookup) error {
		out = append(out, l)
		return nil
	}); err != nil {
		t.Fatalf("Probe: %v", err)
	}
	return out
}

// unreachable is a latency perturbation that pins a host set to +Inf RTT, so
// their truth RTTs tie exactly.
type unreachable map[netsim.HostID]bool

func (u unreachable) ExtraRTTMs(h netsim.HostID, _ time.Duration) float64 {
	if u[h] {
		return math.Inf(1)
	}
	return 0
}

func (unreachable) ClockSkew(netsim.HostID, time.Duration) time.Duration { return 0 }

func TestTruthOrder(t *testing.T) {
	w := newTestWorld(t)
	client := w.Clients[0]
	at := 3 * time.Hour

	// Feed the candidates in descending ID order with a third of them tied
	// at +Inf: only the host-ID tie-break can put the tied tail in ascending
	// order.
	desc := append([]netsim.HostID(nil), w.Candidates...)
	for i, j := 0, len(desc)-1; i < j; i, j = i+1, j-1 {
		desc[i], desc[j] = desc[j], desc[i]
	}
	w.Candidates = desc
	tied := unreachable{}
	for _, c := range desc[:len(desc)/3] {
		tied[c] = true
	}
	w.Topo.SetPerturb(tied)
	defer w.Topo.SetPerturb(nil)

	order := w.TruthOrder(client, at)
	if len(order.Hosts) != len(w.Candidates) {
		t.Fatalf("ordering has %d hosts, want %d", len(order.Hosts), len(w.Candidates))
	}
	for i, h := range order.Hosts {
		if got, want := order.RTT[h], w.TruthRTTMs(client, h, at); got != want {
			t.Errorf("RTT[%d] = %v, want TruthRTTMs %v", h, got, want)
		}
		if order.Rank(h) != i {
			t.Errorf("Rank(%d) = %d, want %d", h, order.Rank(h), i)
		}
		if i == 0 {
			continue
		}
		prev := order.Hosts[i-1]
		if order.RTT[prev] > order.RTT[h] {
			t.Errorf("position %d: RTT %v after %v", i, order.RTT[h], order.RTT[prev])
		}
		if order.RTT[prev] == order.RTT[h] && prev > h {
			t.Errorf("position %d: tied hosts %d, %d not in host-ID order", i, prev, h)
		}
	}
	if tail := order.Hosts[len(order.Hosts)-len(tied):]; !tied[tail[0]] || !tied[tail[len(tail)-1]] {
		t.Errorf("the tied hosts are not the tail of the ordering: %v", tail)
	}
	if got := order.Rank(client); got != len(w.Candidates) {
		t.Errorf("Rank of a non-candidate = %d, want the set size %d", got, len(w.Candidates))
	}
}

func TestProbeLostStepNeverCallsBack(t *testing.T) {
	w := newTestWorld(t)
	attach(t, w, faults.Fault{Kind: faults.LDNSOutage, Start: faults.Duration(time.Hour), Stop: faults.Duration(2 * time.Hour)})
	host := w.Clients[0]
	if got := collect(t, w, host, 90*time.Minute, AllMembers); len(got) != 0 {
		t.Errorf("a step inside the outage called back %d times", len(got))
	}
	if got := collect(t, w, host, 30*time.Minute, AllMembers); len(got) == 0 {
		t.Error("a step outside the outage yielded nothing")
	}
}

func TestProbeRedirectsThroughChurnedLDNS(t *testing.T) {
	w := newTestWorld(t)
	plane := attach(t, w, faults.Fault{Kind: faults.LDNSChurn, Rate: 1})
	// Record the LDNS each Redirect is issued for, through the mapping hook.
	var asked []netsim.HostID
	w.Fleet.Members()[0].SetMapHook(func(ldns netsim.HostID, _, epochLen time.Duration, epoch uint64) (uint64, time.Duration) {
		asked = append(asked, ldns)
		return epoch, time.Duration(epoch) * epochLen
	})
	host, at := w.Clients[0], 10*time.Minute
	churned := plane.ResolverFor(host, at)
	if churned == host {
		t.Fatal("rate-1 churn left the host on its own LDNS")
	}
	collect(t, w, host, at, AllMembers)
	if len(asked) != w.lookupsPerStep() {
		t.Fatalf("%d redirects issued, want %d", len(asked), w.lookupsPerStep())
	}
	for _, ldns := range asked {
		if ldns != churned {
			t.Errorf("Redirect asked for LDNS %d, want the churned identity %d (host %d)", ldns, churned, host)
		}
	}
}

func TestProbeClampsNegativeSkewAtEpoch(t *testing.T) {
	w := newTestWorld(t)
	attach(t, w, faults.Fault{Kind: faults.ClockSkew, Skew: faults.Duration(-time.Hour)})
	host := w.Clients[0]
	for at, want := range map[time.Duration]time.Time{
		10 * time.Minute: w.At(0),                // 10m - 1h clamps to the epoch
		90 * time.Minute: w.At(30 * time.Minute), // past the clamp the skew shows
	} {
		got := collect(t, w, host, at, AllMembers)
		if len(got) == 0 {
			t.Fatalf("no lookups at %v", at)
		}
		for _, l := range got {
			if !l.At.Equal(want) {
				t.Errorf("probe at %v stamped %v, want %v", at, l.At, want)
			}
		}
	}
}

func TestProbePickAndQualification(t *testing.T) {
	named := newTestWorld(t, cdn.Config{Namespace: "cdnA"}, cdn.Config{Namespace: "cdnB", LoadScale: 1.5})
	host, at := named.Clients[1], 20*time.Minute

	all := collect(t, named, host, at, AllMembers)
	var order []string
	for _, l := range all {
		if len(order) == 0 || order[len(order)-1] != l.NS {
			order = append(order, l.NS)
		}
		for _, id := range l.IDs {
			ns, bare := crp.SplitReplica(id)
			if string(ns) != l.NS || !strings.HasPrefix(string(id), l.NS+"!") {
				t.Errorf("ID %q of a %q lookup is not qualified with its namespace", id, l.NS)
			}
			if _, ok := named.Topo.HostByName(string(bare)); !ok {
				t.Errorf("ID %q does not name a replica host", id)
			}
		}
	}
	if got := strings.Join(order, ","); got != "cdnA,cdnB" {
		t.Errorf("AllMembers resolved members in order %q, want cdnA,cdnB", got)
	}
	for pick, ns := range []string{"cdnA", "cdnB"} {
		got := collect(t, named, host, at, pick)
		if len(got) == 0 {
			t.Fatalf("pick %d yielded nothing", pick)
		}
		for _, l := range got {
			if l.NS != ns {
				t.Errorf("pick %d returned a %q lookup", pick, l.NS)
			}
		}
	}

	bare := newTestWorld(t)
	for _, l := range collect(t, bare, host, at, AllMembers) {
		for _, id := range l.IDs {
			if _, ok := bare.Topo.HostByName(string(id)); l.NS != "" || !ok {
				t.Errorf("unnamed member's ID %q (ns %q) is not a bare replica host name", id, l.NS)
			}
		}
	}
}

func TestProbeFallbackFilter(t *testing.T) {
	keep := smallWorld
	keep.KeepFallbackAnswers = true
	kept, err := NewWorld(keep)
	if err != nil {
		t.Fatal(err)
	}
	filtered := newTestWorld(t)
	network := filtered.Fleet.Members()[0]
	isFallback := func(id crp.ReplicaID) bool {
		h, _ := filtered.Topo.HostByName(string(id))
		return network.IsFallback(h)
	}
	sawFallback := false
	for _, host := range filtered.Clients {
		for _, l := range collect(t, filtered, host, 0, AllMembers) {
			for _, id := range l.IDs {
				if isFallback(id) {
					t.Fatalf("host %d: fallback replica %q survived the filter", host, id)
				}
			}
		}
		for _, l := range collect(t, kept, host, 0, AllMembers) {
			for _, id := range l.IDs {
				sawFallback = sawFallback || isFallback(id)
			}
		}
	}
	if !sawFallback {
		t.Error("KeepFallbackAnswers world never surfaced a fallback answer; the filter case is vacuous")
	}
}

func TestSameSeedWorldsProbeIdentically(t *testing.T) {
	members := []cdn.Config{{Namespace: "cdnA"}, {Namespace: "cdnB", ReplicaFraction: 0.5}}
	sequence := func() []Lookup {
		w := newTestWorld(t, members...)
		var out []Lookup
		for _, host := range append(append([]netsim.HostID(nil), w.Clients[:5]...), w.Candidates[:5]...) {
			for i := 0; i < 6; i++ {
				out = append(out, collect(t, w, host, time.Duration(i)*10*time.Minute, AllMembers)...)
			}
		}
		return out
	}
	a, b := sequence(), sequence()
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed worlds diverge: %d vs %d lookups", len(a), len(b))
	}
}
