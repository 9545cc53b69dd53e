package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values when len(xs) is even), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), which is how the spread of repeated runs is judged. With
// fewer than two samples every cut point is that sample.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// tailPercentiles are the candidates tail considers, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tail applies the reporting rule for latencies: the highest of the
// candidate percentiles that has at least ten samples beyond it, using
// the nearest-rank definition. It returns the percentile and its
// value; with fewer than twenty samples no candidate qualifies and it
// returns the median as percentile 50.
func tail(xs []float64) (pct, value float64) {
	if len(xs) == 0 {
		return 50, 0
	}
	s := sorted(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		// The epsilon keeps an exact product like 99.9% of 20000 from
		// rounding up to the next rank.
		rank := max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
		if n-rank >= 10 {
			return p, s[rank-1]
		}
	}
	return 50, median(s)
}
