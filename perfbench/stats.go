package main

import (
	"math"
	"sort"
)

// tailLadder is the tail-percentile ladder. A workload's tail is the highest
// rung with at least minBeyond samples beyond it at its request count, so the
// tail is never decided by a handful of requests. There is no p99.9 rung: it
// needs 10,000 requests per run, and on a shared 2-core host its ten
// samples are a few scheduler hiccups.
var tailLadder = []float64{90, 99}

const minBeyond = 10

// rank returns the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps products like 99.9% of 10000 from rounding up a rank.
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(k, 1), n)
}

// tailPercentile picks the tail rung for n samples and reports how many
// samples lie beyond it. When even the lowest rung has fewer than minBeyond
// samples beyond it, that rung is returned with ok false.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if b := n - rank(tailLadder[i], n); b >= minBeyond {
			return tailLadder[i], b, true
		}
	}
	return tailLadder[0], n - rank(tailLadder[0], n), false
}

// percentile returns the nearest-rank percentile p of xs (sorted in place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(p, len(xs))-1]
}

// median returns the middle value of xs (sorted in place), averaging the
// two middle values of an even count.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }
