package core

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"jxtaoverlay/internal/perfgate"
)

// goid is the calling goroutine's ID, read from the first line of its
// stack trace ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ limit, n int }{{1, 7}, {2, 1}, {2, 100}, {3, 2}, {8, 100}, {100, 5}} {
		counts := make([]atomic.Int32, tc.n)
		forEach(tc.limit, tc.n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("limit %d, n %d: fn(%d) ran %d times", tc.limit, tc.n, i, c)
			}
		}
	}
}

// TestForEachInterleavingBoundedByLimit holds every invocation until
// as many as may run at once have started, so the high-water mark
// reaches the limit and would pass it if the bound leaked; the
// invocations run on the caller's goroutine and limit-1 others.
func TestForEachInterleavingBoundedByLimit(t *testing.T) {
	for _, limit := range []int{2, 3, 5} {
		const n = 40
		var (
			mu      sync.Mutex
			running int
			high    int
			started int
			gs      = map[uint64]bool{}
		)
		full := make(chan struct{})
		caller := goid()
		forEach(limit, n, func(i int) {
			mu.Lock()
			running++
			high = max(high, running)
			started++
			gs[goid()] = true
			if started == limit {
				close(full)
			}
			mu.Unlock()
			<-full
			mu.Lock()
			running--
			mu.Unlock()
		})
		if high != limit {
			t.Errorf("limit %d: %d ran at once", limit, high)
		}
		if len(gs) > limit || !gs[caller] {
			t.Errorf("limit %d: ran on %d goroutines, the caller's among them: %v", limit, len(gs), gs[caller])
		}
	}
}

func TestForEachBelowTwoRunsSeriallyOnCaller(t *testing.T) {
	caller := goid()
	for _, limit := range []int{-3, 0, 1} {
		var order []int
		forEach(limit, 5, func(i int) {
			if g := goid(); g != caller {
				t.Errorf("limit %d: fn(%d) ran on goroutine %d, not the caller's %d", limit, i, g, caller)
			}
			order = append(order, i)
		})
		if len(order) != 5 {
			t.Fatalf("limit %d: ran %v", limit, order)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("limit %d: ran in order %v", limit, order)
			}
		}
	}
}

func TestForEachEmptyCallsNothing(t *testing.T) {
	for _, n := range []int{0, -1} {
		forEach(4, n, func(i int) { t.Errorf("n %d: fn(%d) called", n, i) })
	}
}

// BenchmarkForEach is one fan-out of 16 empty invocations at limit 2:
// the scaffolding alone, the shared counter and wait group and the
// closure over them, with one helper goroutine beside the caller.
func BenchmarkForEach(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		forEach(2, 16, func(int) {})
	}
}

// It reads 2 at any n and any limit: the helpers start on the one
// closure, so none allocates.
func TestGateForEach(t *testing.T) { perfgate.Run(t, BenchmarkForEach, 2, perfgate.NoLimit) }
