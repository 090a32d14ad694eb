package netsim

import (
	"math"
	"testing"
	"time"
)

func TestBaseRTTSymmetricAndZeroOnSelf(t *testing.T) {
	topo := mustGenerate(t, smallParams())
	ids := topo.Clients()
	for i := 0; i < 20; i++ {
		a, b := ids[i], ids[(i*7+3)%len(ids)]
		if got := topo.BaseRTTMs(a, a); got != 0 {
			t.Errorf("BaseRTTMs(%d,%d) = %v, want 0", a, a, got)
		}
		ab, ba := topo.BaseRTTMs(a, b), topo.BaseRTTMs(b, a)
		if ab != ba {
			t.Errorf("BaseRTTMs asymmetric: %v vs %v", ab, ba)
		}
		if a != b && ab <= 0 {
			t.Errorf("BaseRTTMs(%d,%d) = %v, want > 0", a, b, ab)
		}
	}
}

func TestBaseRTTUnknownHostIsNaN(t *testing.T) {
	topo := mustGenerate(t, smallParams())
	if got := topo.BaseRTTMs(0, HostID(len(topo.hosts))); !math.IsNaN(got) {
		t.Errorf("BaseRTTMs with bad host = %v, want NaN", got)
	}
}

func TestRTTGeographyDominates(t *testing.T) {
	// Same-metro pairs must usually be much closer than cross-region pairs;
	// this is the structure CRP exploits.
	topo := mustGenerate(t, smallParams())
	clients := topo.Clients()
	var sameMetro, crossRegion []float64
	for i := 0; i < len(clients); i++ {
		for j := i + 1; j < len(clients); j++ {
			a, b := topo.Host(clients[i]), topo.Host(clients[j])
			rtt := topo.BaseRTTMs(a.ID, b.ID)
			switch {
			case a.Metro == b.Metro:
				sameMetro = append(sameMetro, rtt)
			case a.Region != b.Region:
				crossRegion = append(crossRegion, rtt)
			}
		}
	}
	if len(sameMetro) == 0 || len(crossRegion) == 0 {
		t.Fatal("degenerate topology: need both same-metro and cross-region pairs")
	}
	if m1, m2 := mean(sameMetro), mean(crossRegion); m1*2 > m2 {
		t.Errorf("mean same-metro RTT %.1f ms not well below mean cross-region RTT %.1f ms", m1, m2)
	}
}

func TestASPenaltyZeroWithinAS(t *testing.T) {
	topo := mustGenerate(t, smallParams())
	if got := topo.asPenaltyMs(64512, 64512); got != 0 {
		t.Errorf("same-AS penalty = %v, want 0", got)
	}
	p1 := topo.asPenaltyMs(64512, 64513)
	p2 := topo.asPenaltyMs(64513, 64512)
	if p1 != p2 {
		t.Errorf("AS penalty asymmetric: %v vs %v", p1, p2)
	}
	if p1 < 0 || p1 > 65 {
		t.Errorf("AS penalty %v out of expected range [0,65]", p1)
	}
}

func TestASPenaltyDistribution(t *testing.T) {
	topo := mustGenerate(t, smallParams())
	small, large := 0, 0
	const n = 2000
	for i := 0; i < n; i++ {
		p := topo.asPenaltyMs(ASN(64512+i), ASN(64512+i+1000))
		if p < 4 {
			small++
		}
		if p >= 20 {
			large++
		}
	}
	if frac := float64(small) / n; frac < 0.45 || frac > 0.65 {
		t.Errorf("fraction of well-peered AS pairs = %.2f, want ~0.55", frac)
	}
	if frac := float64(large) / n; frac < 0.08 || frac > 0.25 {
		t.Errorf("fraction of heavy-penalty AS pairs = %.2f, want ~0.15", frac)
	}
}

func TestRTTIncludesCongestionAndVariesWithTime(t *testing.T) {
	topo := mustGenerate(t, smallParams())
	a, b := topo.Clients()[0], topo.Clients()[1]
	base := topo.BaseRTTMs(a, b)
	varied := false
	for hour := 0; hour < 24; hour++ {
		rtt := topo.RTTMs(a, b, time.Duration(hour)*time.Hour)
		if rtt < base-1e-9 {
			t.Errorf("RTT %v at hour %d below base %v", rtt, hour, base)
		}
		if rtt > base+1e-9 {
			varied = true
		}
	}
	if !varied {
		t.Error("RTT never exceeded base over a day; congestion model inactive")
	}
}

func TestRTTDeterministicAtSameInstant(t *testing.T) {
	topo := mustGenerate(t, smallParams())
	a, b := topo.Clients()[2], topo.Candidates()[3]
	at := 90 * time.Minute
	if r1, r2 := topo.RTTMs(a, b, at), topo.RTTMs(a, b, at); r1 != r2 {
		t.Errorf("RTT not deterministic: %v vs %v", r1, r2)
	}
}

func TestMeasureRTTNoiseBoundedAndSaltDecorrelates(t *testing.T) {
	topo := mustGenerate(t, smallParams())
	a, b := topo.Clients()[0], topo.Candidates()[0]
	diverged := false
	for i := 0; i < 200; i++ {
		at := time.Duration(i) * time.Minute
		truth := topo.RTTMs(a, b, at)
		m1 := topo.MeasureRTTMs(a, b, at, 1)
		m2 := topo.MeasureRTTMs(a, b, at, 2)
		if m1 != m2 {
			diverged = true
		}
		// Within ±7% barring the 1% outlier case; allow outliers by checking
		// only the lower bound tightly and upper loosely.
		if m1 < truth*0.92 {
			t.Errorf("measurement %v below noise floor of truth %v", m1, truth)
		}
		if m1 > truth*1.08+200 {
			t.Errorf("measurement %v above any plausible outlier of truth %v", m1, truth)
		}
	}
	if !diverged {
		t.Error("different salts never produced different measurements")
	}
	if got := topo.MeasureRTTMs(a, a, 0, 1); got != 0 {
		t.Errorf("self measurement = %v, want 0", got)
	}
}

func TestMeasureOutliersAreRare(t *testing.T) {
	topo := mustGenerate(t, smallParams())
	a, b := topo.Clients()[5], topo.Candidates()[5]
	outliers := 0
	const n = 3000
	for i := 0; i < n; i++ {
		at := time.Duration(i) * time.Minute
		truth := topo.RTTMs(a, b, at)
		if topo.MeasureRTTMs(a, b, at, 7) > truth*1.08 {
			outliers++
		}
	}
	if frac := float64(outliers) / n; frac > 0.03 {
		t.Errorf("outlier fraction %.3f, want ~0.01", frac)
	}
}

func TestCongestionPeaksInLocalEvening(t *testing.T) {
	topo := mustGenerate(t, smallParams())
	var h *Host
	for i := 0; i < len(topo.hosts); i++ {
		if c := topo.Host(HostID(i)); c.CongestionAmpMs > 8 {
			h = c
			break
		}
	}
	if h == nil {
		t.Skip("no host with meaningful congestion amplitude")
	}
	// Scan a day in the host's local frame; the diurnal component (spikes
	// excluded) should be maximal near 20:00 local and zero in the local
	// early morning.
	best, bestHour := -1.0, -1.0
	for m := 0; m < 24*60; m += 10 {
		at := time.Duration(m) * time.Minute
		c := topo.congestionMs(h, at) - topo.spikeMs(h, at.Truncate(congestionBucket))
		if c > best {
			best, bestHour = c, localHour(at, h.Coord.Lon)
		}
	}
	if best <= 0 {
		t.Fatal("congestion never positive")
	}
	if bestHour < 17 || bestHour > 23 {
		t.Errorf("congestion peaks at local hour %.1f, want evening (17-23)", bestHour)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
