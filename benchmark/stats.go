package main

import (
	"slices"
	"time"
)

// minBeyond is the guide's rule for a percentile: report it only when at
// least this many samples lie beyond it.
const minBeyond = 10

// levels are the percentiles the benchmark reports, in percent, highest
// first.
var levels = []int{99, 90, 50}

// supported returns the highest reported level not above q that n samples
// support: n·(1−level) ≥ minBeyond. With fewer than 2·minBeyond samples not
// even the median is supported and 0 is returned.
func supported(n int, q float64) float64 {
	for _, pct := range levels {
		if l := float64(pct) / 100; l <= q && n*(100-pct) >= minBeyond*100 {
			return l
		}
	}
	return 0
}

// percentile returns the q-quantile of sorted (nearest rank), falling back to
// the highest level the sample supports, and which level that was. An
// unsupported sample gives its median and level 0.
func percentile(sorted []float64, q float64) (value, level float64) {
	if len(sorted) == 0 {
		return 0, 0
	}
	level = supported(len(sorted), q)
	at := level
	if at == 0 {
		at = 0.5
	}
	rank := int(at * float64(len(sorted)))
	return sorted[min(rank, len(sorted)-1)], level
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// micros merges lanes' nanosecond samples into one sorted slice of µs.
func micros(lanes ...[]uint32) []float64 {
	var out []float64
	for _, l := range lanes {
		for _, ns := range l {
			out = append(out, float64(ns)/1e3)
		}
	}
	slices.Sort(out)
	return out
}

// sliceLen cuts a measured window into slices. End-to-end rates and
// latencies are medians over the whole slices of a window, so that a stall
// of a second or two on a shared machine does not set them.
const (
	sliceLen  = time.Second
	minSlices = 3 // below this a window is summarised whole
	// minPerSlice samples keep a slice's count within a percent of its rate.
	minPerSlice = 100
)

// cut is one measured window: whole, and in whole slices.
type cut struct {
	whole  []float64   // µs, sorted
	perSec float64     // units per second over the entire window
	lat    [][]float64 // µs, sorted, per slice
	units  []float64   // units completed per slice
}

// rate is the median slice's units per second. Slices that hold fewer than
// minPerSlice samples count in steps too coarse for that, and the rate is the
// entire window's.
func (c *cut) rate() float64 {
	if len(c.units) < minSlices {
		return c.perSec
	}
	for _, l := range c.lat {
		if len(l) < minPerSlice {
			return c.perSec
		}
	}
	return median(c.units) / sliceLen.Seconds()
}

// percentile is the median over slices of each slice's q-quantile. When any
// slice is too small to support q, it is the entire window's instead, at the
// level that supports.
func (c *cut) percentile(q float64) (value, level float64) {
	if len(c.lat) < minSlices {
		return percentile(c.whole, q)
	}
	per := make([]float64, len(c.lat))
	for i, l := range c.lat {
		if supported(len(l), q) != q {
			return percentile(c.whole, q)
		}
		per[i], _ = percentile(l, q)
	}
	return median(per), q
}

// cutLanes cuts the lanes' samples of one window into its whole slices.
func cutLanes(window time.Duration, elapsed float64, lanes ...*laneStats) *cut {
	c := &cut{}
	var all [][]uint32
	units := int64(0)
	for _, ls := range lanes {
		all = append(all, ls.lat)
		units += ls.units
	}
	c.whole, c.perSec = micros(all...), float64(units)/elapsed
	for i := 0; i < int(window/sliceLen); i++ {
		var parts [][]uint32
		n := int64(0)
		for _, ls := range lanes {
			if i >= len(ls.marks) {
				continue
			}
			hi := len(ls.lat)
			if i+1 < len(ls.marks) {
				hi = ls.marks[i+1]
			}
			parts = append(parts, ls.lat[ls.marks[i]:hi])
			n += ls.sliceUnits[i]
		}
		c.lat, c.units = append(c.lat, micros(parts...)), append(c.units, float64(n))
	}
	return c
}
