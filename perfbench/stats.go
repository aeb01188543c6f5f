package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported tail
// percentile: a percentile with fewer samples beyond it is one outlier
// away from a different value.
const minBeyond = 10

// tailLadder lists the percentiles the tail rule may report, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// dist summarizes one set of timing samples.
type dist struct {
	N      int
	P50    float64
	TailP  float64 // the percentile reported as the tail (100 = max)
	Tail   float64
	Beyond int // samples above Tail
}

// rank returns the nearest-rank index (0-based) of percentile p over n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// summarize applies the percentile rule: the median, and the highest
// percentile of tailLadder that has at least minBeyond samples beyond it,
// with its count. With too few samples for any rung the maximum is the
// tail (TailP 100, Beyond 0). The input is not modified.
func summarize(samples []float64) dist {
	n := len(samples)
	if n == 0 {
		return dist{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{N: n, P50: s[rank(50, n)], TailP: 100, Tail: s[n-1]}
	for _, p := range tailLadder {
		r := rank(p, n)
		if beyond := n - 1 - r; beyond >= minBeyond {
			d.TailP, d.Tail, d.Beyond = p, s[r], beyond
			break
		}
	}
	return d
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pct returns 100*num/den, or 0 when den is 0.
func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}
