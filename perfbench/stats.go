package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 over fewer than 1000 samples is one or two
// samples' worth of noise.
const minBeyond = 10

// percentile returns the nearest-rank q-th percentile (0 < q <= 100)
// of xs, which it sorts in place; NaN for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rankOf(len(xs), q)-1]
}

// rankOf is the 1-based nearest rank of the q-th percentile of n
// samples. The small tolerance keeps a product like 99.9% of 10000,
// which floating point rounds up past 9990, on its exact rank.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples above the q-th percentile's rank.
func beyond(n int, q float64) int { return n - rankOf(n, q) }

// highestSupported returns the highest percentile of the ladder 50,
// 90, 99, 99.9, ... that has at least minBeyond of n samples beyond it,
// or 0 when not even the median does.
func highestSupported(n int) float64 {
	best := 0.0
	for _, q := range []float64{50, 90, 99, 99.9, 99.99, 99.999} {
		if beyond(n, q) < minBeyond {
			break
		}
		best = q
	}
	return best
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
