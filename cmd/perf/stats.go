package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted (ascending) by the
// nearest-rank rule, so the value is always one that was measured.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median sorts a copy of v and returns the middle value (mean of the
// two middle values for an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// cv is the coefficient of variation (population standard deviation
// over the mean).
func cv(v []float64) float64 {
	m := mean(v)
	if m == 0 {
		return 0
	}
	ss := 0.0
	for _, x := range v {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(v))) / m
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(v, n=4) does (exclusive method),
// because that is how the acceptance check computes its spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(k int) float64 {
		// position k*(n+1)/4, 1-based; j is clamped before delta is
		// taken, exactly as the Python source does
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// reliableTail names the highest of p50/p90/p99/p99.9 that still has at
// least ten samples beyond it — the percentile a reader may trust for
// this sample count.
func reliableTail(samples int) (name string, q float64) {
	name, q = "p50", 0.50
	for _, c := range []struct {
		name     string
		q        float64
		perMille int // share of samples beyond the percentile
	}{{"p90", 0.90, 100}, {"p99", 0.99, 10}, {"p999", 0.999, 1}} {
		if samples*c.perMille >= 10*1000 {
			name, q = c.name, c.q
		}
	}
	return name, q
}

func durationsToFloat(d []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / float64(unit)
	}
	return out
}

// medianDuration is the median of d in nanoseconds as a float.
func medianDuration(d []time.Duration) float64 {
	return median(durationsToFloat(d, time.Nanosecond))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
