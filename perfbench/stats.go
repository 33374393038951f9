package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark trusts it: a tail figure resting on fewer is mostly noise.
const minBeyond = 10

// percentile returns the nearest-rank q-th percentile of xs (0 < q <= 100).
// xs need not be sorted; it is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// centralMean is the mean of the samples ranked between the 45th and 55th
// percentiles (at least one sample: the median). It is the
// benchmark's reported p50 for request latencies: a suite of loops with
// very different costs gives a latency distribution with gaps between
// modes, and a plain median can jump across a gap from one run to the next
// when a single sample changes sides; the band's mean moves smoothly.
func centralMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)*45/100, (len(s)*55+99)/100
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// supportedPercentile returns the highest percentile, to 0.1, that has at
// least minBeyond samples beyond it under the nearest-rank rule, or 0 when
// n is too small for any.
func supportedPercentile(n int) float64 {
	if n <= minBeyond {
		return 0
	}
	return math.Floor(1000*float64(n-minBeyond)/float64(n)) / 10
}

// beyond counts the samples the nearest-rank q-th percentile of n samples
// leaves above it.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q/100*float64(n)))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
