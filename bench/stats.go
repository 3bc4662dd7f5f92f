package main

import (
	"math"
	"sort"
	"time"
)

// quantile is the nearest-rank q-quantile of xs (0 for no samples):
// the smallest value with at least q of the sample at or below it, so
// a p99 of fewer than 100 samples is their maximum.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is
// what the benchmark contract measures spread with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j, delta := i*(n+1)/4, float64(i*(n+1)%4)
		j = min(max(j, 1), n-1)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// The host this runs on slows down for seconds at a time, so one
// figure over a whole run mostly measures how much of the run was
// disturbed. Every timing is therefore taken per slice — a fixed
// number of back-to-back operations — and a run reports the decile of
// its slices on the undisturbed side: the ninth decile of slice
// throughputs, the first decile of slice latency quantiles. Slowdowns
// only ever add time, so the undisturbed side is where the program's
// own cost shows.

// sliceRates groups back-to-back operations, each of eventsPerOp
// events and acknowledged at acked[i], k to a slice and returns each
// slice's events per second. A short tail is dropped unless it is all
// there is.
func sliceRates(start time.Time, acked []time.Time, eventsPerOp, k int) []float64 {
	var rates []float64
	prev := start
	for i := 0; i < len(acked); i += k {
		j := min(i+k, len(acked))
		if j-i < k && len(rates) > 0 {
			break
		}
		if d := acked[j-1].Sub(prev).Seconds(); d > 0 {
			rates = append(rates, float64((j-i)*eventsPerOp)/d)
		}
		prev = acked[j-1]
	}
	return rates
}

// sliceQuantiles returns the q-quantile of each slice of k samples,
// with the same rule for a short tail.
func sliceQuantiles(ms []float64, k int, q float64) []float64 {
	var out []float64
	for i := 0; i < len(ms); i += k {
		j := min(i+k, len(ms))
		if j-i < k && len(out) > 0 {
			break
		}
		out = append(out, quantile(ms[i:j], q))
	}
	return out
}

// undisturbedRate and undisturbedLatency are the run-level figures.
func undisturbedRate(rates []float64) float64 { return quantile(rates, 0.90) }
func undisturbedLatency(qs []float64) float64 { return quantile(qs, 0.10) }
