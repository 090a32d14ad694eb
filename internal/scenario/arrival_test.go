package scenario

import (
	"math"
	"testing"
	"time"

	"repro/internal/faults"
)

func constantArrival(rate float64) Arrival {
	return Arrival{Process: ProcessConstant, Rate: rate}
}

// TestArrivalSameSeedPinned: identical (seed, group) must reproduce the
// exact per-tick sequence, and a different seed must diverge — the
// scheduling layer under every byte-identical rerun gate.
func TestArrivalSameSeedPinned(t *testing.T) {
	a := newArrivals(42, 1, 1, constantArrival(20))
	b := newArrivals(42, 1, 1, constantArrival(20))
	diverged := false
	c := newArrivals(43, 1, 1, constantArrival(20))
	for tick := 0; tick < 500; tick++ {
		na, nb := a.Count(tick), b.Count(tick)
		if na != nb {
			t.Fatalf("tick %d: same seed diverged: %d vs %d", tick, na, nb)
		}
		if na != c.Count(tick) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("500 ticks of seed 42 and seed 43 were identical")
	}
}

// TestArrivalRateAccuracy: over a virtual hour, the realized count must be
// within ±5% of rate·3600 — on both Poisson paths (Knuth below λ=30, the
// normal approximation above).
func TestArrivalRateAccuracy(t *testing.T) {
	for _, rate := range []float64{3, 12, 80, 400} {
		ar := newArrivals(7, 2, 1, constantArrival(rate))
		total := 0
		for tick := 0; tick < 3600; tick++ {
			total += ar.Count(tick)
		}
		want := rate * 3600
		if err := math.Abs(float64(total)-want) / want; err > 0.05 {
			t.Errorf("rate %.0f/s: %d arrivals over an hour, want %.0f +/-5%% (err %.3f)", rate, total, want, err)
		}
	}
}

// TestDiurnalShape: the realized peak-window and trough-window totals must
// reproduce the declared peak/trough ratio. The windows are the central
// fifth of each half-cycle, so the analytic window means follow from the
// raised-cosine shape.
func TestDiurnalShape(t *testing.T) {
	const peak, trough = 50.0, 5.0
	period := time.Hour
	ar := newArrivals(11, 0, 1, Arrival{
		Process: ProcessDiurnal, Peak: peak, Trough: trough, Period: faults.Duration(period),
	})

	sum := func(lo, hi int) float64 {
		total := 0.0
		for tick := lo; tick < hi; tick++ {
			total += float64(ar.Count(tick))
		}
		return total / float64(hi-lo)
	}
	// Trough is centered at t=0 (and 3600), peak at t=1800.
	troughMean := sum(0, 360) // first tenth of the cycle, hugging the trough
	peakMean := sum(1620, 1980)

	// Analytic means of rate(t) over the same windows.
	integral := func(lo, hi float64) float64 {
		// ∫ trough + (peak-trough)(1-cos(2πt/T))/2 dt over [lo,hi]
		mid := (peak + trough) / 2
		amp := (peak - trough) / 2
		T := period.Seconds()
		anti := func(x float64) float64 { return mid*x - amp*T/(2*math.Pi)*math.Sin(2*math.Pi*x/T) }
		return (anti(hi) - anti(lo)) / (hi - lo)
	}
	wantTrough := integral(0, 360)
	wantPeak := integral(1620, 1980)

	if err := math.Abs(peakMean-wantPeak) / wantPeak; err > 0.1 {
		t.Errorf("peak window mean %.2f, want %.2f (err %.3f)", peakMean, wantPeak, err)
	}
	if err := math.Abs(troughMean-wantTrough) / wantTrough; err > 0.15 {
		t.Errorf("trough window mean %.2f, want %.2f (err %.3f)", troughMean, wantTrough, err)
	}
	ratio := peakMean / troughMean
	wantRatio := wantPeak / wantTrough
	if math.Abs(ratio-wantRatio)/wantRatio > 0.2 {
		t.Errorf("peak/trough ratio %.2f, want %.2f from the plan", ratio, wantRatio)
	}
}

// TestFlashCrowdTotals: spikes must add exactly rate·width·(factor-1)
// expected arrivals, and the rate outside every window must stay at base.
func TestFlashCrowdTotals(t *testing.T) {
	ar := newArrivals(13, 3, 1, Arrival{
		Process: ProcessFlash, Rate: 10,
		Spikes: []Spike{
			{At: faults.Duration(100 * time.Second), Width: faults.Duration(60 * time.Second), Factor: 5},
			{At: faults.Duration(400 * time.Second), Width: faults.Duration(30 * time.Second), Factor: 3},
		},
	})

	if got := ar.RateAt(50 * time.Second); got != 10 {
		t.Fatalf("baseline rate %v, want 10", got)
	}
	if got := ar.RateAt(120 * time.Second); got != 50 {
		t.Fatalf("in-spike rate %v, want 50", got)
	}
	if got := ar.RateAt(160 * time.Second); got != 10 {
		t.Fatalf("post-spike rate %v, want 10", got)
	}

	total := 0
	for tick := 0; tick < 600; tick++ {
		total += ar.Count(tick)
	}
	// 600s at 10/s, plus 60s·10·(5-1) plus 30s·10·(3-1) from the spikes.
	want := 600*10.0 + 60*10*4 + 30*10*2
	if err := math.Abs(float64(total)-want) / want; err > 0.05 {
		t.Errorf("flash total %d, want %.0f +/-5%% (err %.3f)", total, want, err)
	}
}

// TestMobileLDNSChurn: identities stay inside the pool, are pinned per
// seed, and actually churn across period boundaries at a plausible rate.
func TestMobileLDNSChurn(t *testing.T) {
	a := Arrival{Process: ProcessMobile, Rate: 5, ChurnRate: 0.5,
		Period: faults.Duration(time.Minute)}
	ar := newArrivals(17, 0, 16, a) // a 16-member group draws from 4 identities
	ar2 := newArrivals(17, 0, 16, a)

	changes, checks := 0, 0
	for m := 0; m < 40; m++ {
		prev := -1
		for epoch := 0; epoch < 20; epoch++ {
			at := time.Duration(epoch) * time.Minute
			id := ar.ldnsAt(m, at)
			if id < 0 || id >= 4 {
				t.Fatalf("member %d epoch %d: identity %d outside pool", m, epoch, id)
			}
			if id != ar2.ldnsAt(m, at) {
				t.Fatalf("member %d epoch %d: same seed diverged", m, epoch)
			}
			if prev >= 0 {
				checks++
				if id != prev {
					changes++
				}
			}
			prev = id
		}
	}
	// ChurnRate 0.5 with a 4-wide pool re-rolls to a different identity
	// ~37.5% of boundaries; require the churn to be clearly nonzero and
	// clearly below always-churning.
	frac := float64(changes) / float64(checks)
	if frac < 0.2 || frac > 0.55 {
		t.Errorf("observed churn fraction %.3f, want ~0.375", frac)
	}
}
