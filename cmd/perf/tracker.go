package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// bodyHeaderLen is the fixed prefix "f<flow>r<ring index>|" every
// generated body starts with; the rest is seeded filler.
const bodyHeaderLen = 10

// makeBodies builds the ring of message bodies one flow cycles
// through. They are made once, before the timed phase, so the
// generator allocates nothing per op; the program under test receives
// them as ordinary message text.
func makeBodies(rng *rand.Rand, flow, count, size int) []string {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	if size < bodyHeaderLen {
		size = bodyHeaderLen
	}
	out := make([]string, count)
	buf := make([]byte, size)
	for r := range out {
		copy(buf, fmt.Sprintf("f%dr%06d|", flow, r))
		for i := bodyHeaderLen; i < size; i++ {
			buf[i] = alphabet[rng.Intn(len(alphabet))]
		}
		out[r] = string(buf)
	}
	return out
}

// parseBodyHeader recovers (flow, ring index) from an opened body.
func parseBodyHeader(b []byte) (flow, ring int, ok bool) {
	if len(b) < bodyHeaderLen || b[0] != 'f' || b[2] != 'r' || b[9] != '|' || b[1] < '0' || b[1] > '9' {
		return 0, 0, false
	}
	r, err := strconv.Atoi(string(b[3:9]))
	if err != nil {
		return 0, 0, false
	}
	return int(b[1] - '0'), r, true
}

// tracker follows one flow's messages through one window: which
// recipients must open each op, which have, and what arrived that
// should not have. Every opened body is compared with the body sent.
type tracker struct {
	mu   sync.Mutex
	ring []string
	// wraps is set when the window has more ops than the ring has
	// bodies; a delivery is then attributed to the op in flight, which
	// is exact because such workloads never queue.
	wraps bool

	cur      int          // op in flight, -1 when the flow is parked
	started  atomic.Int64 // UnixNano the op in flight began at, 0 when parked
	awaited  []bool       // recipients whose open completes the generator op
	sent     []bool       // per op: begun in this window
	need     []int        // per op: awaited opens still missing
	seen     [][]bool     // per op, per recipient
	pending  int          // deliveries sent in this window and not yet opened
	finished chan int     // receives an op index when its awaited opens are in
	drained  chan struct{}

	delivered  int // verified deliveries this window
	duplicate  int // the same recipient opened the same op twice
	unexpected int // a delivery no op in flight accounts for
	corrupt    int // opened body differs from the body sent
}

func newTracker(ring []string) *tracker {
	return &tracker{ring: ring, cur: -1, finished: make(chan int, 1), drained: make(chan struct{}, 1)}
}

// reset prepares the tracker for a window of ops generator ops sent to
// recipients peers, of which awaited gate the op's completion.
func (t *tracker) reset(ops, recipients int, awaited []bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.wraps = ops > len(t.ring)
	t.cur = -1
	t.awaited = awaited
	t.need = make([]int, ops)
	t.sent = make([]bool, ops)
	t.seen = make([][]bool, ops)
	flat := make([]bool, ops*recipients)
	for i := range t.seen {
		t.seen[i] = flat[i*recipients : (i+1)*recipients]
	}
	t.pending = 0
	t.delivered, t.duplicate, t.unexpected, t.corrupt = 0, 0, 0, 0
	drainChan(t.finished)
	select {
	case <-t.drained:
	default:
	}
}

func drainChan(c chan int) {
	select {
	case <-c:
	default:
	}
}

// begin returns the text of op and marks it in flight since t0: sent
// deliveries go out, awaitedCount of them gate completion.
func (t *tracker) begin(op int, t0 time.Time, sent, awaitedCount int) string {
	t.started.Store(t0.UnixNano())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur = op
	t.sent[op] = true
	t.need[op] = awaitedCount
	t.pending += sent
	return t.ring[op%len(t.ring)]
}

// park marks the flow idle; anything arriving now is unexpected unless
// the window queued it.
func (t *tracker) park() {
	t.started.Store(0)
	t.mu.Lock()
	t.cur = -1
	t.mu.Unlock()
}

// deliver records that recipient opened body (ring index ringIdx).
func (t *tracker) deliver(recipient, ringIdx int, body []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ringIdx >= len(t.ring) || string(body) != t.ring[ringIdx] {
		t.corrupt++
		return
	}
	op := ringIdx
	if t.wraps {
		if t.cur < 0 || t.cur%len(t.ring) != ringIdx {
			t.unexpected++
			return
		}
		op = t.cur
	}
	if op >= len(t.seen) || !t.sent[op] {
		t.unexpected++
		return
	}
	if t.seen[op][recipient] {
		t.duplicate++
		return
	}
	t.seen[op][recipient] = true
	t.delivered++
	t.pending--
	if t.pending == 0 {
		select {
		case t.drained <- struct{}{}:
		default:
		}
	}
	if t.awaited == nil || t.awaited[recipient] {
		t.need[op]--
		if t.need[op] == 0 && op == t.cur {
			select {
			case t.finished <- op:
			default:
			}
		}
	}
}

// timedOut is what expire puts on finished.
const timedOut = -1

// wait blocks until op's awaited opens are in, or until the run's
// watchdog expires the op. The generator arms no timer of its own: the
// measured path holds none.
func (t *tracker) wait(op int) bool {
	for got := range t.finished {
		if got == op {
			return true
		}
		if got == timedOut {
			return false
		}
	}
	return false
}

// expire fails the op in flight once it is older than opTimeout. The
// watchdog calls it about once a second.
func (t *tracker) expire(now time.Time) {
	if s := t.started.Load(); s != 0 && now.UnixNano()-s > int64(opTimeout) {
		select {
		case t.finished <- timedOut:
		default:
		}
	}
}

// waitDrained blocks until every delivery sent in the window is opened.
func (t *tracker) waitDrained() bool {
	t.mu.Lock()
	idle := t.pending == 0
	t.mu.Unlock()
	if idle {
		return true
	}
	select {
	case <-t.drained:
		return true
	case <-time.After(opTimeout):
		return false
	}
}

type trackerCounts struct{ delivered, duplicate, unexpected, corrupt, pending int }

func (t *tracker) counts() trackerCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return trackerCounts{t.delivered, t.duplicate, t.unexpected, t.corrupt, t.pending}
}
