package main

import (
	"math"
	"sort"
	"time"
)

// tailRule picks the tail percentile for n samples: the highest percentile
// that still has at least ten samples beyond it, capped at p99. It returns
// the percentile and the index of its sample in ascending order. With fewer
// than eleven samples no percentile qualifies and the maximum stands in.
func tailRule(n int) (pct float64, idx int) {
	if n < 11 {
		return 100, n - 1
	}
	p := math.Min(0.99, float64(n-10)/float64(n))
	idx = int(math.Ceil(p*float64(n)-1e-9)) - 1
	return 100 * p, idx
}

// medianIndex is the nearest-rank median of n ascending samples.
func medianIndex(n int) int { return (n+1)/2 - 1 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// around averages the ascending samples within w ranks of index i, where w
// is a twentieth of the sample count but never reaches more than halfway to
// either end. A single order statistic of a few dozen unlike ops is one op's
// noise; its neighbours are the ops most like it.
func around(s []time.Duration, i int) time.Duration {
	w := min(len(s)/20, i/2, (len(s)-1-i)/2)
	var sum time.Duration
	for _, d := range s[i-w : i+w+1] {
		sum += d
	}
	return sum / time.Duration(2*w+1)
}

// latencyStats returns the median and tail-rule latency in milliseconds.
func latencyStats(lat []time.Duration) (p50, tail float64) {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	_, ti := tailRule(len(s))
	return ms(around(s, medianIndex(len(s)))), ms(around(s, ti))
}

func medianDuration(v []time.Duration) time.Duration {
	s := append([]time.Duration(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[medianIndex(len(s))]
}

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[medianIndex(len(s))]
}
