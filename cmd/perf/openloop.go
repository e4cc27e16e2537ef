package main

import (
	"errors"
	"sort"
	"sync"
	"time"

	"jxtaoverlay/internal/events"
)

// The open-loop pass (group-relay only, ungated) asks what the closed
// loop cannot: how latency behaves when rounds arrive on a schedule
// whether or not the last one is done. Two generators send at a fixed
// rate — 50 % and then 80 % of the closed-loop goodput just measured —
// and every round is timed from the moment it was due, so a stall is
// charged to all the rounds it delays (no coordinated omission).
const openLoopSeconds = 3

// openLoop fills the openloop.* metrics; on other workloads they are 0.
func (l *layerRun) openLoop() {
	for _, n := range layerMetricNames("openloop.") {
		l.m[n] = 0
	}
	g, ok := l.live.wl.(*groupRelay)
	if !ok || g.drain {
		return
	}
	perS := l.m["raw.goodput_per_s"] / float64(l.cfg.spec.deliveriesPerOp) // rounds per second, both flows
	tick := l.m["canary.tick_us"] / 1e6
	seconds := openLoopSeconds * min(1, l.cfg.seconds/8)
	var late []float64
	growth := 0.0
	for _, load := range []struct {
		tag   string
		share float64
	}{{"at50", 0.5}, {"at80", 0.8}} {
		rate := perS * load.share / flows // per generator
		n := max(4, int(rate*seconds))
		lat, lateMS, grew := g.openLoopRun(l, n, time.Duration(float64(time.Second)/rate))
		sort.Float64s(lat)
		l.m["openloop.p50_ticks_"+load.tag] = quantile(lat, 0.5) / tick
		l.m["openloop.p99_ticks_"+load.tag] = quantile(lat, 0.99) / tick
		late = append(late, lateMS)
		growth = max(growth, grew)
	}
	l.m["openloop.gen_late_ms"] = max(late[0], late[1])
	l.m["openloop.backlog_growth"] = growth
}

// openLoopRun sends n rounds per generator, one every interval, without
// waiting for deliveries. It returns each round's latency in seconds
// from its due time, the generator's median lateness in ms, and how
// much the rounds in flight grew between the first and the last third
// of the run (as a share of n; about 0 when the system keeps up).
func (g *groupRelay) openLoopRun(l *layerRun, n int, interval time.Duration) (lat []float64, lateMS, backlogGrowth float64) {
	ol := newOpenLoopTracker(g.peers)
	defer ol.stop()
	// Bodies of its own, one per round, so that a delivery names its round.
	bodies := make([][]string, flows)
	rng := newRand(l.cfg.seed + 1)
	for f := range bodies {
		bodies[f] = makeBodies(rng, f, n, l.cfg.spec.bodyBytes)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var lates []float64
	var sendErr error
	inFlight := make([]int, 0, flows*n)
	start := time.Now().Add(10 * time.Millisecond)
	for f := 0; f < flows; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			// The second generator runs half an interval out of phase.
			first := start.Add(time.Duration(f) * interval / flows)
			for i := 0; i < n; i++ {
				due := first.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				behind := time.Since(due)
				ol.expect(f, i, due)
				_, _, err := g.peers[f].sc.SecureMsgPeerGroupRelay(l.ctx, benchGroup, bodies[f][i])
				mu.Lock()
				lates = append(lates, float64(behind.Microseconds())/1e3)
				inFlight = append(inFlight, ol.outstanding())
				if err != nil && sendErr == nil {
					sendErr = err
				}
				mu.Unlock()
			}
		}(f)
	}
	wg.Wait()
	check(sendErr)
	if !ol.drain() {
		check(errors.New("open-loop pass: rounds still undelivered after the timeout"))
	}
	third := max(1, len(inFlight)/3)
	head, tail := 0.0, 0.0
	for i := 0; i < third; i++ {
		head += float64(inFlight[i])
		tail += float64(inFlight[len(inFlight)-1-i])
	}
	return ol.latencies(), median(lates), (tail - head) / float64(third) / float64(n)
}

// openLoopTracker times rounds that overlap: a round is done when its
// 16th recipient has opened it.
type openLoopTracker struct {
	mu      sync.Mutex
	rounds  map[[2]int]*openRound // by (flow, sequence)
	pending int
	lat     []float64
	cancel  []func()
	idle    chan struct{}
}

type openRound struct {
	due  time.Time
	need int
}

func newOpenLoopTracker(peers []*peer) *openLoopTracker {
	t := &openLoopTracker{rounds: map[[2]int]*openRound{}, idle: make(chan struct{}, 1)}
	for _, p := range peers {
		t.cancel = append(t.cancel, p.sc.Bus().Subscribe(events.SecureMessage, func(e events.Event) {
			flow, seq, ok := parseBodyHeader(e.Data)
			if !ok {
				return
			}
			now := time.Now()
			t.mu.Lock()
			defer t.mu.Unlock()
			r := t.rounds[[2]int{flow, seq}]
			if r == nil {
				return
			}
			if r.need--; r.need == 0 {
				t.lat = append(t.lat, now.Sub(r.due).Seconds())
				delete(t.rounds, [2]int{flow, seq})
				if t.pending--; t.pending == 0 {
					select {
					case t.idle <- struct{}{}:
					default:
					}
				}
			}
		}))
	}
	return t
}

func (t *openLoopTracker) expect(flow, seq int, due time.Time) {
	t.mu.Lock()
	t.rounds[[2]int{flow, seq}] = &openRound{due: due, need: groupPeers - 1}
	t.pending++
	t.mu.Unlock()
}

func (t *openLoopTracker) outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pending
}

// drain waits until every expected round is done.
func (t *openLoopTracker) drain() bool {
	deadline := time.After(opTimeout)
	for t.outstanding() > 0 {
		select {
		case <-t.idle:
		case <-deadline:
			return false
		}
	}
	return true
}

func (t *openLoopTracker) latencies() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.lat...)
}

func (t *openLoopTracker) stop() {
	for _, c := range t.cancel {
		c()
	}
}
