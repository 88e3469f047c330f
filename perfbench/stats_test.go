package main

import (
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{n: 19},                              // p50 would leave 9 above it
		{n: 20, p: 50, beyond: 10, ok: true}, // the smallest sample with a median
		{n: 100, p: 90, beyond: 10, ok: true},
		{n: 999, p: 95, beyond: 49, ok: true}, // p99 would leave 9 above it
		{n: 1000, p: 99, beyond: 10, ok: true},
		{n: 10000, p: 99.9, beyond: 10, ok: true},
	} {
		p, ok := tail(100, c.n)
		if !ok {
			p = 0
		}
		if b := beyond(p, c.n); ok != c.ok || ok && (p != c.p || b != c.beyond) {
			t.Errorf("highest percentile of %d samples: p%g with %d beyond (%v); want p%g with %d (%v)",
				c.n, p, b, ok, c.p, c.beyond, c.ok)
		}
	}
}

func TestTailFallsBackBelowTheWantedPercentile(t *testing.T) {
	for _, c := range []struct {
		want float64
		n    int
		p    float64
		ok   bool
	}{
		{99, 5000, 99, true},
		{99, 1000, 99, true},
		{99, 500, 95, true},
		{99, 100, 90, true},
		{99, 30, 50, true},
		{99, 10, 50, false},
		{50, 100000, 50, true}, // never above the wanted percentile
	} {
		if p, ok := tail(c.want, c.n); p != c.p || ok != c.ok {
			t.Errorf("tail(%g, %d) = p%g, %v; want p%g, %v", c.want, c.n, p, ok, c.p, c.ok)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 100; i >= 1; i-- {
		d = append(d, time.Duration(i))
	}
	sortDurations(d)
	for p, want := range map[float64]time.Duration{50: 50, 90: 90, 99: 99, 99.9: 100, 0: 1} {
		if got := percentile(d, p); got != want {
			t.Errorf("p%g = %d, want %d", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %d", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestValidName(t *testing.T) {
	for _, n := range []string{"ops_per_s", "core.create.p99_us", "cpu.objstore", "9lives", "a-b.c_d"} {
		if !validName(n) {
			t.Errorf("%q rejected", n)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "a"
	}
	for _, n := range []string{"", ".hidden", "_x", "a b", "a/b", "µs", "a+b", long} {
		if validName(n) {
			t.Errorf("%q accepted", n)
		}
	}
}
