package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPctNearestRank(t *testing.T) {
	d := newDist(seq(100))
	for _, tc := range []struct {
		q      float64
		v      float64
		beyond int
	}{
		{0.5, 50, 50},
		{0.95, 95, 5},
		{0.99, 99, 1},
		{1, 100, 0},
		{0.001, 1, 99},
	} {
		v, beyond := d.pct(tc.q)
		if v != tc.v || beyond != tc.beyond {
			t.Errorf("p%g = %v (%d beyond), want %v (%d beyond)", tc.q*100, v, beyond, tc.v, tc.beyond)
		}
	}
	if v, beyond := newDist(nil).pct(0.5); v != 0 || beyond != 0 {
		t.Errorf("empty sample: got %v, %d", v, beyond)
	}
}

func TestMustPctWantsTenBeyond(t *testing.T) {
	if _, err := newDist(seq(1000)).mustPct("x", 0.99); err != nil {
		t.Errorf("n=1000 has 10 samples beyond p99: %v", err)
	}
	_, err := newDist(seq(999)).mustPct("x", 0.99)
	if err == nil || !strings.Contains(err.Error(), "9 samples beyond") {
		t.Errorf("n=999 has 9 samples beyond p99, want an error, got %v", err)
	}
	if _, err := newDist(seq(200)).mustPct("x", 0.95); err != nil {
		t.Errorf("n=200 has 10 samples beyond p95: %v", err)
	}
}

func TestPctWithFailures(t *testing.T) {
	xs := seq(1000)
	xs[0] = math.Inf(1) // one failed request misses any limit
	v, _ := newDist(xs).pct(0.99)
	if math.IsInf(v, 1) {
		t.Errorf("one failure in 1000 must not reach p99")
	}
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	if v, _ := newDist(xs).pct(0.99); !math.IsInf(v, 1) {
		t.Errorf("11 failures in 1000 must put p99 at infinity, got %v", v)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestLateness(t *testing.T) {
	sched := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	sent := []time.Duration{100 * time.Microsecond, 900 * time.Microsecond, 5 * time.Millisecond}
	late := lateness(sched, sent)
	want := []float64{0.1, 0, 3} // early sends clamp to zero
	for i := range want {
		if math.Abs(late[i]-want[i]) > 1e-9 {
			t.Errorf("lateness[%d] = %v, want %v", i, late[i], want[i])
		}
	}
}

func TestFellBehind(t *testing.T) {
	onTime := make([]float64, 1000)
	for i := range onTime {
		onTime[i] = 0.2
	}
	if why := fellBehind(onTime); why != "" {
		t.Errorf("on-time generator rejected: %s", why)
	}
	// Most sends late: the generator cannot keep the rate.
	behind := append([]float64(nil), onTime...)
	for i := 0; i < 600; i++ {
		behind[i] = 1.5
	}
	if why := fellBehind(behind); !strings.Contains(why, "median") {
		t.Errorf("median lateness 1.5 ms not rejected: %q", why)
	}
	// 2% of sends 30 ms late: p99 is past the limit.
	late := append([]float64(nil), onTime...)
	for i := 0; i < 20; i++ {
		late[i] = 30
	}
	if why := fellBehind(late); !strings.Contains(why, "p99") {
		t.Errorf("p99 lateness 30 ms not rejected: %q", why)
	}
	// A single stall of the machine is not falling behind.
	stall := append([]float64(nil), onTime...)
	stall[500] = 80
	if why := fellBehind(stall); why != "" {
		t.Errorf("one 80 ms stall rejected: %s", why)
	}
	if why := fellBehind(onTime[:50]); why == "" {
		t.Errorf("too few scheduled requests accepted")
	}
}
