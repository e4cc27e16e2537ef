package main

import (
	"runtime"
	"time"
)

// timeIt runs fn n times, timing each call, and returns the median in
// microseconds. The per-layer pass reports raw medians; canary.tick_us
// is printed beside them.
func timeIt(n int, fn func()) float64 {
	d := make([]time.Duration, n)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = time.Since(t0)
	}
	return medianDuration(d) / 1e3
}

// timeEach is timeIt for calls that need a fresh input every time:
// prep runs untimed, fn timed.
func timeEach[T any](n int, prep func(i int) T, fn func(T)) float64 {
	d := make([]time.Duration, n)
	for i := range d {
		in := prep(i)
		t0 := time.Now()
		fn(in)
		d[i] = time.Since(t0)
	}
	return medianDuration(d) / 1e3
}

// together times a call and, right after it in the same loop, the
// calls it is known to make. It returns the medians, in microseconds,
// of the call and of the call less its parts (its self time) — taken
// per iteration, so that this machine's speed changes cancel.
func together(n int, whole func(), parts ...func()) (total, self float64) {
	tot := make([]float64, n)
	slf := make([]float64, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		whole()
		t := time.Since(t0)
		var sum time.Duration
		for _, p := range parts {
			t0 = time.Now()
			p()
			sum += time.Since(t0)
		}
		tot[i] = float64(t) / 1e3
		slf[i] = max(0, float64(t-sum)/1e3)
	}
	return median(tot), median(slf)
}

// allocsOf reports what one call of fn allocates, averaged over n
// calls: objects and KiB. Background goroutines (flushers, sweepers)
// allocate almost nothing, so the process-wide counters serve.
func allocsOf(n int, fn func()) (objects, kib float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(n)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// passError carries an error out of the per-layer pass: its hundred
// fallible calls all run on inputs the pass built itself, so they
// unwind through must/check and layerPass turns the panic back into
// the error.
type passError struct{ err error }

func must[T any](v T, err error) T {
	check(err)
	return v
}

func check(err error) {
	if err != nil {
		panic(passError{err})
	}
}
