package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for the percentile to be supported by the data.
const minBeyond = 10

// supportedPercentile returns the highest whole percentile, at most
// want, that has at least minBeyond of n samples beyond its
// nearest-rank position. It never goes below 50: a median is always
// reported, and the sample count printed next to it says how much it
// rests on.
func supportedPercentile(n int, want float64) float64 {
	if n <= minBeyond {
		return 50
	}
	p := float64(100 * (n - minBeyond) / n) // floor, in exact integer arithmetic
	if p > want {
		p = want
	}
	if p < 50 {
		p = 50
	}
	return p
}

// percentile returns the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p percent of the samples at or below
// it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p * float64(len(sorted)) / 100))
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[k-1]
}

// tail reports a timing distribution the way every latency metric of
// the benchmark is reported: the median, and the highest supported
// percentile up to want, with the sample count it rests on.
type tail struct {
	N      int
	Median float64
	P      float64 // the percentile actually reported
	Value  float64 // the sample at P
}

func tailOf(samples []float64, want float64) tail {
	s := sortedCopy(samples)
	p := supportedPercentile(len(s), want)
	return tail{N: len(s), Median: median(s), P: p, Value: percentile(s, p)}
}

// median returns the median of xs (the mean of the middle two for an
// even count), 0 for none.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
