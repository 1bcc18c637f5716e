package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

// The tail is the highest percentile with at least ten samples beyond it,
// reported with the sample count; without enough samples above the median
// there is no tail.
func TestSummarizeTailRule(t *testing.T) {
	for _, tc := range []struct {
		n            int
		tailPct, val float64
	}{
		{n: 100, tailPct: 90, val: 90},
		{n: 1000, tailPct: 99, val: 990},
		{n: 21, tailPct: 52, val: 11},
		{n: 20},
		{n: 5},
	} {
		s := summarize(seq(tc.n))
		if s.N != tc.n || s.TailPct != tc.tailPct || s.Tail != tc.val {
			t.Errorf("n=%d: got %+v, want tail p%.0f = %v", tc.n, s, tc.tailPct, tc.val)
		}
		if s.TailPct > 0 {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > s.Tail {
					beyond++
				}
			}
			if beyond != minBeyond {
				t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, minBeyond)
			}
		}
	}
	if got := summarize(seq(4)).Median; got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestPercentile(t *testing.T) {
	if v := percentile(seq(100), 0.90); v != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", v)
	}
	if v := percentile(seq(7), 0.5); v != 4 {
		t.Errorf("p50 of 1..7 = %v, want 4", v)
	}
}
