package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile for it to count as measured rather than as the run's
// maximum in disguise.
const minBeyond = 10

// dist is a sorted sample of one quantity.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// pct returns the nearest-rank q-quantile (0 < q <= 1) and how many
// samples lie beyond its rank. An empty sample yields (0, 0).
func (d dist) pct(q float64) (v float64, beyond int) {
	n := len(d)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return d[rank-1], n - rank
}

// mustPct is pct that fails unless at least minBeyond samples lie beyond
// the percentile.
func (d dist) mustPct(what string, q float64) (float64, error) {
	v, beyond := d.pct(q)
	if beyond < minBeyond {
		return 0, fmt.Errorf("%s: p%g has %d samples beyond it in n=%d, want >= %d", what, q*100, beyond, len(d), minBeyond)
	}
	return v, nil
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range d {
		s += x
	}
	return s / float64(len(d))
}

// median of an unsorted sample (the mean of the middle pair for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := newDist(xs)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// Generator lateness. An open-loop generator owes each request to the
// wire at its scheduled time; lateness is how far after that time the
// request was actually written. A run whose generator fell behind
// measured the generator, not the server, and is rejected. A generator
// that falls behind is late on most sends; a stall of the machine makes
// it late on a few, catches up at once, and latency, which runs from the
// schedule, charges the stall to every request it delayed.
const (
	lateP50Limit  = time.Millisecond      // median lateness allowed
	lateP99Limit  = 20 * time.Millisecond // p99 lateness allowed
	lateQuantile  = 0.99
	lateMinSample = 100
)

// lateness returns each request's send time minus its scheduled time,
// clamped at zero (a request is never early).
func lateness(scheduled, sent []time.Duration) []float64 {
	out := make([]float64, len(sent))
	for i := range sent {
		if l := sent[i] - scheduled[i]; l > 0 {
			out[i] = ms(l)
		}
	}
	return out
}

// fellBehind reports why a generator's lateness sample disqualifies the
// run, or "" when it kept to its schedule.
func fellBehind(late []float64) string {
	if len(late) < lateMinSample {
		return fmt.Sprintf("only %d scheduled requests (want >= %d)", len(late), lateMinSample)
	}
	d := newDist(late)
	if p, _ := d.pct(0.5); p > ms(lateP50Limit) {
		return fmt.Sprintf("generator median lateness %.3f ms exceeds %.0f ms", p, ms(lateP50Limit))
	}
	if p, _ := d.pct(lateQuantile); p > ms(lateP99Limit) {
		return fmt.Sprintf("generator p99 lateness %.3f ms exceeds %.0f ms", p, ms(lateP99Limit))
	}
	return ""
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
