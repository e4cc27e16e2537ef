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

// deliver takes a batch for one recipient whole, or fails it whole.
func (s *sink) deliver(items []relay.Item) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	to := items[0].To
	if s.fail || !s.online[to] {
		return errors.New("unreachable")
	}
	for _, it := range items {
		if it.To != to {
			panic("a batch for two recipients")
		}
		s.delivered[to] = append(s.delivered[to], string(it.AppendPayload(nil)))
	}
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

// batches records each batch a relay delivers, by its items' payloads.
type batches struct {
	mu  sync.Mutex
	got [][]string
	// fail, when set, decides whether the i-th batch (from 0) fails.
	fail func(i int) bool
}

func (b *batches) deliver(items []relay.Item) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	var payloads []string
	for _, it := range items {
		payloads = append(payloads, string(it.AppendPayload(nil)))
	}
	i := len(b.got)
	b.got = append(b.got, payloads)
	if b.fail != nil && b.fail(i) {
		return errors.New("unreachable")
	}
	return nil
}

func (b *batches) all() [][]string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([][]string(nil), b.got...)
}

// sizes is the length of each batch.
func sizes(bs [][]string) []int {
	out := make([]int, len(bs))
	for i, b := range bs {
		out[i] = len(b)
	}
	return out
}

// TestDrainDeliversBatches: a drain hands its deliverer the queue in
// order, in batches of at most 64 items and 256 KiB of payload (one item
// over the budget goes alone), and a direct push is a batch of one.
func TestDrainDeliversBatches(t *testing.T) {
	var online atomic.Bool
	b := new(batches)
	r, err := relay.New(relay.Config{QueueCap: 200}, func(keys.PeerID) bool { return online.Load() }, b.deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var want []string
	for i := 0; i < 150; i++ {
		want = append(want, fmt.Sprintf("m%03d", i))
		r.Submit(item("bob", want[i]))
	}
	big := string(make([]byte, 100<<10))
	for _, p := range []string{big, big, big, string(make([]byte, 300<<10)), big} {
		want = append(want, p)
		r.Submit(item("bob", p))
	}
	online.Store(true)
	r.Flush("bob")
	waitFor(t, func() bool { return r.Metrics().DeliveredFlushed == uint64(len(want)) })
	got := b.all()
	if fmt.Sprint(sizes(got)) != "[64 64 24 1 1 1]" {
		t.Fatalf("the drain's batches hold %v items, want [64 64 24 1 1 1]", sizes(got))
	}
	var flat []string
	for _, batch := range got {
		flat = append(flat, batch...)
	}
	if fmt.Sprint(flat) != fmt.Sprint(want) {
		t.Fatal("the drain delivered the queue out of order")
	}
	if r.Submit(item("bob", "direct")) != relay.SubmitDirect {
		t.Fatal("a submit to an online peer was not pushed")
	}
	if got := b.all(); len(got) != 7 || fmt.Sprint(got[6]) != "[direct]" {
		t.Fatalf("the direct push went out as %q", got[len(got)-1])
	}
}

// TestFailedBatchGoesBackWhole: the second batch of a drain fails; the
// drain stops, all of that batch goes back at the front of the queue in
// order, and the retry the failure schedules delivers it and the rest
// exactly once, in order.
func TestFailedBatchGoesBackWhole(t *testing.T) {
	var online atomic.Bool
	b := &batches{fail: func(i int) bool { return i == 1 }}
	r, err := relay.New(relay.Config{QueueCap: 200}, func(keys.PeerID) bool { return online.Load() }, b.deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var want []string
	for i := 0; i < 150; i++ {
		want = append(want, fmt.Sprintf("m%03d", i))
		r.Submit(item("bob", want[i]))
	}
	online.Store(true)
	r.Flush("bob")
	waitFor(t, func() bool { return r.Metrics().DeliveredFlushed == 150 && r.QueueLen("bob") == 0 })
	got := b.all()
	var flat []string
	for i, batch := range got {
		if i != 1 {
			flat = append(flat, batch...)
		}
	}
	if fmt.Sprint(flat) != fmt.Sprint(want) || fmt.Sprint(got[1]) != fmt.Sprint(want[64:128]) {
		t.Fatalf("batches of %v delivered the queue out of order or twice", sizes(got))
	}
}

// TestItemDeliverFuncDeliversEachOnce: a relay built with a deliverer of
// one item (the form cmd/perf passes) hands it one item a call, every
// queued item exactly once, in order, and retries a failed one alone.
func TestItemDeliverFuncDeliversEachOnce(t *testing.T) {
	var online atomic.Bool
	var mu sync.Mutex
	var got []string
	failed := false
	r, err := relay.New(relay.Config{QueueCap: 200}, func(keys.PeerID) bool { return online.Load() }, func(it relay.Item) error {
		mu.Lock()
		defer mu.Unlock()
		if len(got) == 70 && !failed {
			failed = true
			return errors.New("unreachable")
		}
		got = append(got, string(it.Payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var want []string
	for i := 0; i < 150; i++ {
		want = append(want, fmt.Sprintf("m%03d", i))
		r.Submit(item("bob", want[i]))
	}
	online.Store(true)
	r.Flush("bob")
	waitFor(t, func() bool { return r.Metrics().DeliveredFlushed == 150 })
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("delivered %d items, not the queue once in order", len(got))
	}
}
