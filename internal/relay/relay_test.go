package relay_test

import (
	"errors"
	"fmt"
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
	s.delivered[it.To] = append(s.delivered[it.To], string(it.Payload))
	return nil
}

func (s *sink) got(id keys.PeerID) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.delivered[id]...)
}

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

// TestTTLExpiryMidQueue: items with caller-set expiries interleaved in
// one queue — the expired middle item is discarded at drain while its
// neighbors deliver.
func TestTTLExpiryMidQueue(t *testing.T) {
	var clock atomic.Int64 // seconds
	now := func() time.Time { return time.Unix(1000+clock.Load(), 0) }
	s := newSink()
	r := mustRelay(t, relay.Config{Clock: now, TTL: time.Hour}, s)
	defer r.Close()

	longLived := func(p string) relay.Item {
		it := item("bob", p)
		it.Expires = now().Add(time.Hour)
		return it
	}
	shortLived := func(p string) relay.Item {
		it := item("bob", p)
		it.Expires = now().Add(10 * time.Second)
		return it
	}
	r.Submit(longLived("keep0"))
	r.Submit(shortLived("drop"))
	r.Submit(longLived("keep1"))

	clock.Store(60) // the middle item is now expired; the others are not
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
	// The wire heals; nothing else happens. The armed retry must deliver.
	s.mu.Lock()
	s.fail = false
	s.mu.Unlock()
	waitFor(t, func() bool { return len(s.got("bob")) == 1 })
	if got := s.got("bob"); got[0] != "m0" {
		t.Fatalf("delivered = %v", got)
	}
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
	r := mustRelay(t, relay.Config{QueueCap: 10000, TTL: time.Hour, Shards: 4}, s)
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
