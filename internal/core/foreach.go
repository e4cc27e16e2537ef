package core

import (
	"sync"
	"sync/atomic"
)

// forEach invokes fn(i) for every i in [0, n), running at most limit
// invocations concurrently, and returns when all have finished: the
// bounded fan-out a group message's recipient verification and its sends
// run under. The caller's goroutine takes a share of the work beside
// min(limit, n)-1 helper goroutines, each taking the next index until
// none is left; a limit below two runs every fn on the caller's
// goroutine, in order. Results and errors are the caller's to collect
// (into a pre-sized slice indexed by i, which needs no locking since
// every invocation writes its own element).
func forEach(limit, n int, fn func(i int)) {
	helpers := min(limit, n) - 1
	if helpers < 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// The counter and the wait group escape together, in one allocation;
	// the helpers start on work itself, a closure without arguments, so
	// none allocates.
	var s struct {
		next atomic.Int64
		wg   sync.WaitGroup
	}
	s.wg.Add(helpers + 1)
	work := func() {
		defer s.wg.Done()
		for {
			i := int(s.next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	for range helpers {
		go work()
	}
	work()
	s.wg.Wait()
}
