package main

import "sort"

// Quantiles are named in permille (500 = p50, 999 = p99.9) so that rank
// arithmetic is exact.

// rank is the 1-based nearest rank of a quantile among n sorted samples.
func rank(n, permille int) int {
	r := (permille*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

func quantile(sorted []float64, permille int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), permille)-1]
}

// tailQuantile is the percentile rule: the highest of p90/p99/p99.9 that
// still has at least ten samples beyond it, capped at limit (a metric
// named p99 never reports p99.9). Below 100 samples no tail is
// supported and the median stands in.
func tailQuantile(n, limit int) int {
	best := 500
	for _, q := range []int{900, 990, 999} {
		if q <= limit && n-rank(n, q) >= 10 {
			best = q
		}
	}
	return best
}

// dist summarises one sample of timings under the percentile rule.
type dist struct {
	n         int
	p50, tail float64
	tailQ     int // which quantile tail is, in permille: 900, 990 or 999 (500 when unsupported)
}

func summarize(vals []float64, limit int) dist {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := tailQuantile(len(s), limit)
	return dist{n: len(s), p50: quantile(s, 500), tail: quantile(s, q), tailQ: q}
}

// quartiles returns the median and the first and third quartile by the
// exclusive method, the same numbers as Python's
// statistics.quantiles(values, n=4), which the driver uses.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		if n == 1 {
			return s[0]
		}
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
