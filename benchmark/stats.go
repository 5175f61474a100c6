package main

import (
	"math"
	"sort"
)

// median returns the median of vs (0 for an empty slice). vs is not
// modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// how the driver measures spread.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// iqrRatio is the interquartile distance as a share of the median.
func iqrRatio(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}

// halfGap is the distance between the medians of the first and the second
// half of vs, in the order measured, as a share of the median of all: what
// one run can say about how far a second run of the same code would land.
// Unlike the interquartile spread it is not widened by values that differ
// for a reason (web-crash's windows each draw their own sessions), and
// unlike a standard error it sees a regime of the box that lasted half the
// run.
func halfGap(vs []float64) float64 {
	m := median(vs)
	if len(vs) < 2 || m == 0 {
		return 0
	}
	h := len(vs) / 2
	return math.Abs(median(vs[:h])-median(vs[h:])) / math.Abs(m)
}

// percentileInt64 returns the nearest-rank p-th percentile of sorted, and
// the number of samples strictly beyond that rank. A percentile is only
// meaningful with at least minTail samples beyond it (choosing-metrics:
// "the highest percentile that has at least ten samples beyond it").
func percentileInt64(sorted []int64, p float64) (v int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// minTail is the sample count that must lie beyond a reported percentile.
const minTail = 10
