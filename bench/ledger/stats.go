package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile of an ascending slice by nearest rank:
// the smallest element with at least q of the samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method),
// which is what the benchmark's acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// segmentQuantiles splits lat into its three equal-op-count segments
// (seg[i] names sample i's segment, 0..2) and returns each segment's
// q-quantile. The reported p50 and p99 are the median of these over every
// segment of every round: one stalled segment then moves the figure far
// less than it moves a whole-phase percentile, which is what lets p99
// repeat on a shared two-core box.
func segmentQuantiles(lat []float64, seg []uint8, q float64) []float64 {
	var parts [3][]float64
	for i, l := range lat {
		parts[seg[i]] = append(parts[seg[i]], l)
	}
	var qs []float64
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		sort.Float64s(p)
		qs = append(qs, percentile(p, q))
	}
	return qs
}

// stallSeconds sums the gaps longer than 100 ms between consecutive
// completions (ends in ns, any order).
func stallSeconds(ends []int64) float64 {
	s := append([]int64(nil), ends...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var total int64
	for i := 1; i < len(s); i++ {
		if gap := s[i] - s[i-1]; gap > 100e6 {
			total += gap
		}
	}
	return float64(total) / 1e9
}
