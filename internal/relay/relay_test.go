package relay_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/relay"
	"jxtaoverlay/internal/waituntil"
)

// sink collects deliveries and simulates per-peer reachability.
type sink struct {
	mu        sync.Mutex
	online    map[keys.PeerID]bool
	delivered map[keys.PeerID][]string
	fail      bool
}

func newSink() *sink {
	return &sink{online: make(map[keys.PeerID]bool), delivered: make(map[keys.PeerID][]string)}
}

func (s *sink) setOnline(id keys.PeerID, on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.online[id] = on
}

func (s *sink) isOnline(id keys.PeerID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.online[id]
}

func (s *sink) deliver(it relay.Item) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail || !s.online[it.To] {
		return errors.New("unreachable")
	}
	s.delivered[it.To] = append(s.delivered[it.To], string(it.AppendPayload(nil)))
	return nil
}

func (s *sink) got(id keys.PeerID) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.delivered[id]...)
}

// relayTTL is how long the relay keeps a queued item deliverable.
const relayTTL = 2 * time.Minute

func mustRelay(t *testing.T, cfg relay.Config, s *sink) *relay.Relay {
	t.Helper()
	r, err := relay.New(cfg, s.isOnline, s.deliver)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	waituntil.Must(t, 5*time.Second, cond, "condition not reached within 5s")
}

func item(to keys.PeerID, payload string) relay.Item {
	return relay.Item{To: to, From: "sender", Group: "g", Payload: []byte(payload)}
}

func TestDirectDeliveryWhenOnline(t *testing.T) {
	s := newSink()
	r := mustRelay(t, relay.Config{}, s)
	defer r.Close()
	s.setOnline("bob", true)
	if r.Submit(item("bob", "hello")) != relay.SubmitDirect {
		t.Fatal("online submit not delivered directly")
	}
	if got := s.got("bob"); len(got) != 1 || got[0] != "hello" {
		t.Fatalf("delivered = %v", got)
	}
	if m := r.Metrics(); m.DeliveredDirect != 1 || m.Enqueued != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// parts is a relay.Parts of strings.
type parts []string

func (p parts) PartSize(i int) int                  { return len(p[i]) }
func (p parts) AppendPart(dst []byte, i int) []byte { return append(dst, p[i]...) }

// TestNamedPayloadCutWhenKept: an item that names its payload as part of
// a source is read there by a direct delivery, and cut into bytes of its
// own when the relay keeps it — queued for an offline peer, or after a
// direct delivery that failed — so that the source may change once
// Submit has returned.
func TestNamedPayloadCutWhenKept(t *testing.T) {
	s := newSink()
	r := mustRelay(t, relay.Config{}, s)
	defer r.Close()
	src := parts{"direct", "queued", "failed"}
	named := func(to keys.PeerID, i int) relay.Item {
		return relay.Item{To: to, From: "sender", Group: "g", Source: src, Part: i}
	}
	s.setOnline("bob", true)
	if got := r.Submit(named("bob", 0)); got != relay.SubmitDirect {
		t.Fatalf("online submit = %v", got)
	}
	if got := r.Submit(named("carol", 1)); got != relay.SubmitQueued {
		t.Fatalf("offline submit = %v", got)
	}
	s.mu.Lock()
	s.fail = true
	s.mu.Unlock()
	s.setOnline("dave", true)
	if got := r.Submit(named("dave", 2)); got != relay.SubmitQueued {
		t.Fatalf("submit whose delivery failed = %v", got)
	}
	for i := range src {
		src[i] = "overwritten"
	}
	s.mu.Lock()
	s.fail = false
	s.mu.Unlock()
	s.setOnline("carol", true)
	r.Flush("carol")
	r.Flush("dave")
	waitFor(t, func() bool { return len(s.got("carol")) == 1 && len(s.got("dave")) == 1 })
	for id, want := range map[keys.PeerID]string{"bob": "direct", "carol": "queued", "dave": "failed"} {
		if got := s.got(id); len(got) != 1 || got[0] != want {
			t.Fatalf("%s got %q, want %q", id, got, want)
		}
	}
}

func TestQueueAndFlushOnPresence(t *testing.T) {
	s := newSink()
	r := mustRelay(t, relay.Config{}, s)
	defer r.Close()
	bus := events.NewBus()
	defer r.BindBus(bus)()

	for i := 0; i < 3; i++ {
		if r.Submit(item("bob", fmt.Sprintf("m%d", i))) != relay.SubmitQueued {
			t.Fatal("offline submit not queued")
		}
	}
	if r.QueueLen("bob") != 3 {
		t.Fatalf("queue len = %d", r.QueueLen("bob"))
	}
	// The login path: presence flips online, the bus announces it.
	s.setOnline("bob", true)
	col := events.NewCollector(bus)
	bus.Emit(events.Event{Type: events.PresenceUpdate, From: "bob", Status: advert.StatusOnline})
	waitFor(t, func() bool { return len(s.got("bob")) == 3 })
	// FIFO order survives the queue.
	if got := s.got("bob"); got[0] != "m0" || got[1] != "m1" || got[2] != "m2" {
		t.Fatalf("order = %v", got)
	}
	if _, ok := col.WaitFor(events.RelayFlushed, 2*time.Second); !ok {
		t.Fatal("no RelayFlushed event")
	}
	if m := r.Metrics(); m.DeliveredFlushed != 3 || m.Enqueued != 3 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestTTLExpiryMidQueue: a clock stepped back between submissions
// queues an item that expires before its neighbors — the expired middle
// item is discarded at drain while its neighbors deliver.
func TestTTLExpiryMidQueue(t *testing.T) {
	var clock atomic.Int64 // seconds
	now := func() time.Time { return time.Unix(1000+clock.Load(), 0) }
	s := newSink()
	r := mustRelay(t, relay.Config{Clock: now}, s)
	defer r.Close()

	clock.Store(100)
	r.Submit(item("bob", "keep0"))
	clock.Store(0) // stepped back: this item expires 100 s before the others
	r.Submit(item("bob", "drop"))
	clock.Store(100)
	r.Submit(item("bob", "keep1"))

	clock.Store(int64(relayTTL/time.Second) + 50) // the middle item is now expired; the others are not
	s.setOnline("bob", true)
	r.Flush("bob")
	waitFor(t, func() bool { return len(s.got("bob")) == 2 })
	if got := s.got("bob"); got[0] != "keep0" || got[1] != "keep1" {
		t.Fatalf("delivered = %v", got)
	}
	if m := r.Metrics(); m.Expired != 1 {
		t.Fatalf("expired = %d, want 1", m.Expired)
	}
}

// TestOverflowDropsOldestInOrder: a full queue sheds its OLDEST items,
// and what survives still delivers in FIFO order.
func TestOverflowDropsOldestInOrder(t *testing.T) {
	s := newSink()
	r := mustRelay(t, relay.Config{QueueCap: 3}, s)
	defer r.Close()
	for i := 0; i < 5; i++ {
		r.Submit(item("bob", fmt.Sprintf("m%d", i)))
	}
	if m := r.Metrics(); m.DroppedOverflow != 2 {
		t.Fatalf("dropped = %d, want 2", m.DroppedOverflow)
	}
	s.setOnline("bob", true)
	r.Flush("bob")
	waitFor(t, func() bool { return len(s.got("bob")) == 3 })
	if got := s.got("bob"); got[0] != "m2" || got[1] != "m3" || got[2] != "m4" {
		t.Fatalf("survivors = %v, want m2 m3 m4", got)
	}
}

// TestFailedFlushKeepsRemainder: delivery failing mid-drain (the peer
// vanished again) re-queues the failed item at the FRONT, preserving
// order for the next flush.
func TestFailedFlushKeepsRemainder(t *testing.T) {
	s := newSink()
	r := mustRelay(t, relay.Config{}, s)
	defer r.Close()
	r.Submit(item("bob", "m0"))
	r.Submit(item("bob", "m1"))
	// Peer "online" but the wire is down: the drain must not lose items.
	s.mu.Lock()
	s.online["bob"] = true
	s.fail = true
	s.mu.Unlock()
	r.Flush("bob")
	waitFor(t, func() bool { return r.Metrics().DeliverErrors >= 1 })
	if r.QueueLen("bob") != 2 {
		t.Fatalf("queue len after failed flush = %d, want 2", r.QueueLen("bob"))
	}
	s.mu.Lock()
	s.fail = false
	s.mu.Unlock()
	r.Flush("bob")
	waitFor(t, func() bool { return len(s.got("bob")) == 2 })
	if got := s.got("bob"); got[0] != "m0" || got[1] != "m1" {
		t.Fatalf("order = %v", got)
	}
}

// TestTransientFailureRetriesWhileOnline: a delivery failure against a
// peer that STAYS online gets no presence event to re-trigger the
// drain, so the relay must recover on its own via the delayed retry —
// no manual Flush, no login.
func TestTransientFailureRetriesWhileOnline(t *testing.T) {
	s := newSink()
	r := mustRelay(t, relay.Config{}, s)
	defer r.Close()
	s.mu.Lock()
	s.online["bob"] = true
	s.fail = true
	s.mu.Unlock()
	r.Submit(item("bob", "m0")) // direct fails, queued; triggered drain fails too
	waitFor(t, func() bool {
		return r.Metrics().DeliverErrors >= 2 && r.QueueLen("bob") == 1
	})
	// The wire heals; nothing else happens. The scheduled retry must deliver.
	s.mu.Lock()
	s.fail = false
	s.mu.Unlock()
	waitFor(t, func() bool { return len(s.got("bob")) == 1 })
	if got := s.got("bob"); got[0] != "m0" {
		t.Fatalf("delivered = %v", got)
	}
}

// TestFlushBurstStartsNoGoroutine: Flush marks its peer due on the
// shard's schedule and returns, however far behind the worker is. A
// burst of flushes for a peer whose worker is held inside a delivery to
// it starts no goroutine; when the delivery returns, the rest of the
// queue drains.
func TestFlushBurstStartsNoGoroutine(t *testing.T) {
	var online atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	var delivered atomic.Int32
	r, err := relay.New(relay.Config{}, func(keys.PeerID) bool { return online.Load() }, func(relay.Item) error {
		if delivered.Add(1) == 1 {
			close(entered)
			<-release
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Submit(item("bob", "m0"))
	r.Submit(item("bob", "m1"))
	online.Store(true)
	r.Flush("bob")
	<-entered // the worker holds m0; m1 is still queued
	before := runtime.NumGoroutine()
	for i := 0; i < 300; i++ {
		r.Flush("bob")
	}
	if rose := runtime.NumGoroutine() - before; rose > 0 {
		t.Errorf("300 flushes behind a busy worker started %d goroutines, want none", rose)
	}
	close(release)
	waitFor(t, func() bool { return delivered.Load() == 2 && r.QueueLen("bob") == 0 })
}

// TestRetryStateLeavesWithQueue: the retry ladder of a peer whose
// deliveries failed while it was online is state of its queue. When the
// peer goes offline and its queue expires, the prune that removes the
// queue leaves nothing of the ladder behind: no scheduled drain and no
// attempt count, although nothing was ever delivered to reset it.
func TestRetryStateLeavesWithQueue(t *testing.T) {
	var clock atomic.Int64 // seconds
	now := func() time.Time { return time.Unix(1000+clock.Load(), 0) }
	s := newSink()
	r := mustRelay(t, relay.Config{Clock: now}, s)
	defer r.Close()
	s.mu.Lock()
	s.online["bob"] = true
	s.fail = true
	s.mu.Unlock()
	r.Submit(item("bob", "m0")) // direct fails, queued; the triggered drain fails and schedules a retry
	waitFor(t, func() bool { return r.ScheduledRetries() == 1 })
	s.setOnline("bob", false)
	clock.Store(int64(relayTTL/time.Second) + 1)
	r.Flush("bob")
	waitFor(t, func() bool { return r.Metrics().Expired == 1 && r.QueueLen("bob") == 0 })
	if r.RetryState("bob") {
		t.Fatal("bob's queue expired, but retry state for bob remains")
	}
}

// TestLoginWhileFailedItemIsOut: a drain pops bob's last item, its
// delivery fails and the drain reads bob offline; bob logs in, and his
// login's Flush runs, before the drain puts the item back. That Flush
// must still drain him: the failed drain schedules no retry, having read
// him offline, and no later login comes.
func TestLoginWhileFailedItemIsOut(t *testing.T) {
	var on, armed atomic.Bool
	var r *relay.Relay
	online := func(keys.PeerID) bool {
		if armed.CompareAndSwap(true, false) {
			// The drain's read after the failure: offline, and bob logs in
			// before the drain goes on.
			on.Store(true)
			r.Flush("bob")
			return false
		}
		return on.Load()
	}
	var got atomic.Int32
	r, err := relay.New(relay.Config{}, online, func(relay.Item) error {
		if !on.Load() {
			return errors.New("unreachable")
		}
		got.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Submit(item("bob", "m0")) // offline: queued
	armed.Store(true)
	r.Flush("bob")
	waitFor(t, func() bool { return got.Load() == 1 && r.QueueLen("bob") == 0 })
}

// TestDirectSuccessDrainsStragglers: a straggler left queued by a
// failed drain is flushed by the next successful DIRECT delivery to the
// same peer — newer traffic must not permanently overtake it.
func TestDirectSuccessDrainsStragglers(t *testing.T) {
	s := newSink()
	r := mustRelay(t, relay.Config{}, s)
	defer r.Close()
	r.Submit(item("bob", "m0")) // offline: queued
	s.setOnline("bob", true)
	if r.Submit(item("bob", "m1")) != relay.SubmitDirect {
		t.Fatal("online submit not delivered directly")
	}
	waitFor(t, func() bool { return len(s.got("bob")) == 2 })
	seen := map[string]bool{}
	for _, p := range s.got("bob") {
		seen[p] = true
	}
	if !seen["m0"] || !seen["m1"] {
		t.Fatalf("delivered = %v", s.got("bob"))
	}
}

// TestConcurrentFlushEnqueueRace: submitters race a peer that logs in
// mid-stream. Whatever interleaving happens, every item is delivered
// exactly once — none lost to the gap between the online check and the
// enqueue, none duplicated by the re-triggered flush. Run under -race
// (the CI GOMAXPROCS=4 job does).
func TestConcurrentFlushEnqueueRace(t *testing.T) {
	s := newSink()
	r := mustRelay(t, relay.Config{QueueCap: 10000}, s)
	defer r.Close()
	bus := events.NewBus()
	defer r.BindBus(bus)()

	const senders, perSender = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				r.Submit(item("bob", fmt.Sprintf("s%d-m%d", g, i)))
			}
		}(g)
	}
	// The peer logs in while the senders are mid-burst.
	time.Sleep(time.Millisecond)
	s.setOnline("bob", true)
	bus.Emit(events.Event{Type: events.PresenceUpdate, From: "bob", Status: advert.StatusOnline})
	wg.Wait()

	waitFor(t, func() bool { return len(s.got("bob")) == senders*perSender })
	got := s.got("bob")
	seen := make(map[string]bool, len(got))
	for _, p := range got {
		if seen[p] {
			t.Fatalf("duplicate delivery of %s", p)
		}
		seen[p] = true
	}
	if r.QueueLen("bob") != 0 {
		t.Fatalf("residual queue: %d", r.QueueLen("bob"))
	}
}

func TestCloseStopsDelivery(t *testing.T) {
	s := newSink()
	r := mustRelay(t, relay.Config{}, s)
	r.Submit(item("bob", "m0"))
	r.Close()
	// A closed relay must own up to discarding the item — reporting it
	// queued would let a broker tell the sender it awaits delivery.
	if got := r.Submit(item("bob", "m1")); got != relay.SubmitDropped {
		t.Fatalf("submit after close = %v, want SubmitDropped", got)
	}
	r.Flush("bob") // must not panic or hang
}
