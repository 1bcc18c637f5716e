package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a tail read from fewer samples is one outlier.
const minBeyond = 10

// Summary is one timing distribution as the benchmark reports it: the
// median, the highest percentile that still has at least minBeyond samples
// beyond it, and the sample count. TailPct is 0 when there are too few
// samples for any tail.
type Summary struct {
	N       int     `json:"n"`
	Median  float64 `json:"median"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

// summarize reduces samples to a Summary. The tail is the sample with
// exactly minBeyond samples ranked above it.
func summarize(xs []float64) Summary {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return Summary{}
	}
	out := Summary{N: n, Median: median(s)}
	if i := n - minBeyond - 1; 2*(i+1) > n {
		out.TailPct = math.Floor(100 * float64(i+1) / float64(n))
		out.Tail = s[i]
	}
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of xs.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	return s[max(int(math.Ceil(p*float64(len(s))))-1, 0)]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an ascending slice.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is median for unsorted input.
func medianOf(xs []float64) float64 { return median(sorted(xs)) }
