package events

import (
	"maps"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSubscribeEmit(t *testing.T) {
	b := NewBus()
	var got []Event
	b.Subscribe(MessageReceived, func(e Event) { got = append(got, e) })
	b.Emit(Event{Type: MessageReceived, From: "peer-1", Data: []byte("hi")})
	b.Emit(Event{Type: LoginOK}) // different type, must not be delivered
	if len(got) != 1 {
		t.Fatalf("received %d events", len(got))
	}
	if got[0].From != "peer-1" || string(got[0].Data) != "hi" {
		t.Fatalf("event = %+v", got[0])
	}
	if got[0].Time.IsZero() {
		t.Fatal("Emit did not stamp time")
	}
	// An event without attributes reads as one: Emit makes no map for it.
	if got[0].Payload != nil || got[0].Attr("user") != "" {
		t.Fatalf("payload-less event arrived with %v", got[0].Payload)
	}
}

func TestWildcardSubscription(t *testing.T) {
	b := NewBus()
	var count atomic.Int32
	b.SubscribeAll(func(Event) { count.Add(1) })
	b.Emit(Event{Type: LoginOK})
	b.Emit(Event{Type: LoginFailed})
	b.Emit(Event{Type: SecurityAlert})
	if count.Load() != 3 {
		t.Fatalf("wildcard got %d events", count.Load())
	}
}

func TestUnsubscribe(t *testing.T) {
	b := NewBus()
	var count atomic.Int32
	cancel := b.Subscribe(LoginOK, func(Event) { count.Add(1) })
	b.Emit(Event{Type: LoginOK})
	cancel()
	b.Emit(Event{Type: LoginOK})
	if count.Load() != 1 {
		t.Fatalf("handler fired %d times, want 1", count.Load())
	}
	cancel() // double-cancel must be safe
}

func TestMultipleSubscribersSameType(t *testing.T) {
	b := NewBus()
	var a, c atomic.Int32
	b.Subscribe(GroupUpdated, func(Event) { a.Add(1) })
	b.Subscribe(GroupUpdated, func(Event) { c.Add(1) })
	b.Emit(Event{Type: GroupUpdated})
	if a.Load() != 1 || c.Load() != 1 {
		t.Fatalf("subscribers fired %d/%d", a.Load(), c.Load())
	}
}

func TestConcurrentEmitSubscribe(t *testing.T) {
	b := NewBus()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			cancel := b.Subscribe(PresenceUpdate, func(Event) {})
			defer cancel()
		}()
		go func() {
			defer wg.Done()
			b.Emit(Event{Type: PresenceUpdate})
		}()
	}
	wg.Wait()
}

func TestAttr(t *testing.T) {
	e := Event{Payload: map[string]string{"user": "alice"}}
	if e.Attr("user") != "alice" || e.Attr("none") != "" {
		t.Fatal("Attr misbehaved")
	}
}

// TestSecureMessageAttrs: a SecureMessage's attributes are its typed
// fields, read through Attr and Attrs under the names a payload used.
func TestSecureMessageAttrs(t *testing.T) {
	e := Event{Type: SecureMessage, Mode: "channel", User: "alice"}
	want := map[string]string{"authenticated": "true", "mode": "channel", "user": "alice"}
	for k, v := range want {
		if got := e.Attr(k); got != v {
			t.Errorf("Attr(%q) = %q, want %q", k, got, v)
		}
	}
	if got := e.Attrs(); !maps.Equal(got, want) {
		t.Errorf("Attrs() = %v, want %v", got, want)
	}
	// The typed fields speak for a SecureMessage only.
	plain := Event{Type: MessageReceived, User: "alice", Payload: map[string]string{"authenticated": "false"}}
	if plain.Attr("user") != "" || plain.Attr("authenticated") != "false" {
		t.Errorf("a plain message read as %v", plain.Attrs())
	}
}

// TestPresenceUpdateAttrs: a PresenceUpdate's "user" and "status" are its
// typed fields, read through Attr and Attrs under the names a payload used.
func TestPresenceUpdateAttrs(t *testing.T) {
	e := Event{Type: PresenceUpdate, User: "bob", Status: "online"}
	want := map[string]string{"user": "bob", "status": "online"}
	for k, v := range want {
		if got := e.Attr(k); got != v {
			t.Errorf("Attr(%q) = %q, want %q", k, got, v)
		}
	}
	if got := e.Attrs(); !maps.Equal(got, want) {
		t.Errorf("Attrs() = %v, want %v", got, want)
	}
	if e.Attr("authenticated") != "" || e.Attr("mode") != "" {
		t.Errorf("a presence update read as %v", e.Attrs())
	}
}

// TestEmitAllocatesNothing: dispatching an event to its subscribers copies
// no subscriber list and makes no payload.
func TestEmitAllocatesNothing(t *testing.T) {
	b := NewBus()
	var n int
	b.Subscribe(SecureMessage, func(Event) { n++ })
	b.SubscribeAll(func(Event) { n++ })
	e := Event{Type: SecureMessage, Mode: "channel", User: "alice", Time: time.Now()}
	if allocs := testing.AllocsPerRun(100, func() { b.Emit(e) }); allocs != 0 {
		t.Fatalf("Emit allocates %.0f times, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("no handler ran")
	}
}

// TestBusCopyOnWriteSnapshot holds the bus to its snapshot rule while
// handlers subscribe and cancel from other goroutines and from inside
// handlers, and events are emitted from several goroutines: a handler
// cancelled during an Emit may still see that event, but never one whose
// Emit began after the cancel returned.
func TestBusCopyOnWriteSnapshot(t *testing.T) {
	b := NewBus()
	var seq atomic.Int64 // numbers events in the order their Emits begin
	emit := func() { b.Emit(Event{Type: PresenceUpdate, Data: []byte(strconv.FormatInt(seq.Add(1), 10))}) }
	num := func(e Event) int64 { n, _ := strconv.ParseInt(string(e.Data), 10, 64); return n }

	// watched is one subscription whose cancel records the last event
	// number handed out when it returned: no event it sees may be later.
	type watched struct {
		mu     sync.Mutex
		seen   []int64
		cutoff atomic.Int64 // 0 until cancelled
		cancel func()
	}
	watch := func(h func(w *watched, e Event)) *watched {
		w := &watched{}
		w.cancel = b.Subscribe(PresenceUpdate, func(e Event) {
			w.mu.Lock()
			w.seen = append(w.seen, num(e))
			w.mu.Unlock()
			if h != nil {
				h(w, e)
			}
		})
		return w
	}
	stop := func(w *watched) {
		w.cancel()
		w.cutoff.Store(seq.Load())
	}

	const rounds = 200
	var ws []*watched
	for i := 0; i < 8; i++ {
		ws = append(ws, watch(nil))
	}
	// Two cancel themselves from inside a handler, one subscribes (and
	// cancels) another from inside its own.
	selfA := watch(func(w *watched, e Event) {
		if num(e) > rounds/4 && w.cutoff.Load() == 0 {
			stop(w)
		}
	})
	selfB := watch(func(w *watched, e Event) {
		if num(e) > rounds/2 && w.cutoff.Load() == 0 {
			stop(w)
		}
	})
	watch(func(*watched, Event) {
		b.Subscribe(LoginOK, func(Event) {})()
	})
	ws = append(ws, selfA, selfB)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				emit()
			}
		}()
	}
	// Cancels from other goroutines, while the emitters run.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(w *watched, after int64) {
			defer wg.Done()
			for seq.Load() < after {
				runtime.Gosched()
			}
			stop(w)
		}(ws[i], int64(i*rounds/4))
	}
	// And a goroutine that keeps subscribing and cancelling.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			b.SubscribeAll(func(Event) {})()
		}
	}()
	wg.Wait()
	emit() // one after everything: nobody cancelled may see it

	for i, w := range ws {
		cutoff := w.cutoff.Load()
		if cutoff == 0 {
			t.Errorf("subscription %d was never cancelled", i)
			continue
		}
		w.mu.Lock()
		for _, n := range w.seen {
			if n > cutoff {
				t.Errorf("subscription %d cancelled after event %d saw event %d", i, cutoff, n)
			}
		}
		w.mu.Unlock()
	}
}

func TestCollector(t *testing.T) {
	b := NewBus()
	c := NewCollector(b)
	go func() {
		time.Sleep(10 * time.Millisecond)
		b.Emit(Event{Type: FileReceived, Group: "g"})
	}()
	e, ok := c.WaitFor(FileReceived, 5*time.Second)
	if !ok {
		t.Fatal("WaitFor timed out")
	}
	if e.Group != "g" {
		t.Fatalf("event = %+v", e)
	}
	if len(c.OfType(FileReceived)) != 1 {
		t.Fatal("OfType mismatch")
	}
	if _, ok := c.WaitFor(TaskCompleted, 30*time.Millisecond); ok {
		t.Fatal("WaitFor returned event that never fired")
	}
}
