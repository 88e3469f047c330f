package main

import (
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported.
const minBeyond = 10

// percentileLadder lists the percentiles a tail is reported at, highest
// first.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// rank is the 1-based nearest-rank position of percentile p among n samples.
// The epsilon keeps float error from pushing an exact rank (99.9% of 10000)
// one place up.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples ranked above percentile p among n samples.
func beyond(p float64, n int) int { return n - rank(p, n) }

// tail picks the percentile reported for a metric that asks for want: the
// highest ladder percentile up to want with at least minBeyond of the n
// samples above it, or the median, flagged by ok=false, when none has.
func tail(want float64, n int) (p float64, ok bool) {
	for _, q := range percentileLadder {
		if q <= want && beyond(q, n) >= minBeyond {
			return q, true
		}
	}
	return 50, false
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name is a legal metric name: it starts with a
// letter or digit and uses only [A-Za-z0-9_.-], at most 64 characters.
func validName(name string) bool { return metricName.MatchString(name) }
