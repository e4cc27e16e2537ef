package endpoint

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/simnet"
)

// requestIDs records the correlation ID of every request frame the
// fabric carries, in the order they were sent.
type requestIDs struct {
	mu  sync.Mutex
	ids [][]byte
}

func tapRequestIDs(n *simnet.Network) *requestIDs {
	r := &requestIDs{}
	n.AddTap(func(p simnet.Packet) {
		if f, err := ParseFrame(p.Payload); err == nil && f.Corr == CorrRequest {
			r.mu.Lock()
			r.ids = append(r.ids, bytes.Clone(f.CorrID))
			r.mu.Unlock()
		}
	})
	return r
}

func (r *requestIDs) last(t *testing.T) []byte {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ids) == 0 {
		t.Fatal("no request frame on the wire")
	}
	return r.ids[len(r.ids)-1]
}

// pendingLen is the size of s's request table.
func pendingLen(s *Service) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pending)
}

// answer delivers to s, on the caller's goroutine, a response from peer
// under the correlation ID id carrying who.
func answer(s *Service, peer keys.PeerID, id []byte, who string) {
	s.deliver(simnet.Packet{Payload: NewFrame(Route{Src: peer, Service: svcResponse, Corr: CorrResponse, CorrID: id},
		Element{"who", []byte(who)})})
}

// TestRequestTableIDs: a request's correlation ID is its 12 random bytes,
// raw on the wire, a fresh one for every request, and the table holds an
// entry only while its request waits.
func TestRequestTableIDs(t *testing.T) {
	n, a, b := pair(t)
	wire := tapRequestIDs(n)
	b.RegisterHandler("echo", func(keys.PeerID, *Message) *Message { return NewMessage().AddString("who", "b") })
	seen := map[string]bool{}
	for i := 0; i < 8; i++ {
		if _, err := a.Request(context.Background(), b.PeerID(), "echo", NewMessage(), 5*time.Second); err != nil {
			t.Fatal(err)
		}
		id := wire.last(t)
		if len(id) != 12 || seen[string(id)] {
			t.Fatalf("request %d went out under %x: want 12 bytes never used before", i, id)
		}
		seen[string(id)] = true
		if got := pendingLen(a); got != 0 {
			t.Fatalf("%d entries left in the request table after an answered request", got)
		}
	}
}

// parked is a peer's two services whose handler waits for the test:
// each delivery signals entered and then takes one release. "drop"
// answers nothing, "hold" answers "b".
type parked struct{ entered, release chan struct{} }

func park(b *Service) *parked {
	p := &parked{make(chan struct{}, 1), make(chan struct{})}
	handler := func(answer *Message) Handler {
		return func(keys.PeerID, *Message) *Message {
			p.entered <- struct{}{}
			<-p.release
			return answer
		}
	}
	b.RegisterHandler("drop", handler(nil))
	b.RegisterHandler("hold", handler(NewMessage().AddString("who", "b")))
	return p
}

type outcome struct {
	who string
	err error
}

// requestAsync starts a request from a to one of p's services on b, on a
// goroutine of its own. Once the handler holds it, it returns the
// channel the request waits on — the waiter it took from the pool, in
// the table since before the request was sent — and its outcome. The
// caller releases the handler.
func requestAsync(t *testing.T, a, b *Service, p *parked, service string, timeout time.Duration) (chan *Message, <-chan outcome) {
	t.Helper()
	done := make(chan outcome, 1)
	go func() {
		resp, err := a.Request(context.Background(), b.PeerID(), service, NewMessage(), timeout)
		var who string
		if err == nil {
			who, _ = resp.GetString("who")
		}
		done <- outcome{who, err}
	}()
	<-p.entered
	a.mu.RLock()
	defer a.mu.RUnlock()
	if len(a.pending) != 1 {
		t.Fatalf("%d requests waiting, want 1", len(a.pending))
	}
	for _, ch := range a.pending {
		return ch, done
	}
	return nil, done
}

// onOneP runs the test on one P until it ends, so that the pool hands
// the waiter a request put back to the next request that takes one. The
// race build drops one Put in four at random: a test that needs the
// reuse tries again.
func onOneP(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestLateResponseAnswersNothing: a request that timed out leaves the
// table and returns its waiter, and the next request reuses it; the
// first request's response, arriving late, answers nothing — not the
// request now waiting on its waiter, which gets its own answer — and
// neither does a response whose correlation ID is a request ID cut short
// or run long.
func TestLateResponseAnswersNothing(t *testing.T) {
	n, a, b := pair(t)
	onOneP(t)
	wire := tapRequestIDs(n)
	p := park(b)
	for attempt := 0; attempt < 20; attempt++ {
		first, timedOut := requestAsync(t, a, b, p, "drop", 50*time.Millisecond)
		late := wire.last(t)
		p.release <- struct{}{}
		if r := <-timedOut; !errors.Is(r.err, context.DeadlineExceeded) {
			t.Fatalf("an unanswered request returned %v, want the deadline", r.err)
		}
		if got := pendingLen(a); got != 0 {
			t.Fatalf("%d entries left in the request table after a timeout", got)
		}

		second, done := requestAsync(t, a, b, p, "hold", 10*time.Second)
		waiting := wire.last(t)
		answer(a, b.PeerID(), late, "late")
		answer(a, b.PeerID(), waiting[:11], "short")
		answer(a, b.PeerID(), append(bytes.Clone(waiting), 0), "long")
		answer(a, b.PeerID(), nil, "none")
		p.release <- struct{}{}
		select {
		case r := <-done:
			if r.err != nil || r.who != "b" {
				t.Fatalf("the waiting request got %q, %v: want its own answer", r.who, r.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the waiting request was never answered")
		}
		if second == first {
			return
		}
	}
	t.Fatal("no request reused the waiter of the request before it")
}

// TestRequestTableReusedWaiterAnswered: a waiter whose timer fired is
// answered when the next request reuses it, and does not time out at
// once — neither after its request timed out nor after its request was
// answered as the timer fired.
func TestRequestTableReusedWaiterAnswered(t *testing.T) {
	_, a, b := pair(t)
	onOneP(t)
	p := park(b)
	reused := false
	for attempt := 0; attempt < 20 && !reused; attempt++ {
		first, timedOut := requestAsync(t, a, b, p, "drop", 20*time.Millisecond)
		p.release <- struct{}{}
		if r := <-timedOut; !errors.Is(r.err, context.DeadlineExceeded) {
			t.Fatalf("an unanswered request returned %v, want the deadline", r.err)
		}
		second, done := requestAsync(t, a, b, p, "hold", 10*time.Second)
		p.release <- struct{}{}
		if r := <-done; r.err != nil || r.who != "b" {
			t.Fatalf("a request after a timeout got %q, %v: want its answer", r.who, r.err)
		}
		reused = second == first
	}
	if !reused {
		t.Fatal("no request reused the waiter of a request that timed out")
	}

	b.RegisterHandler("echo", func(keys.PeerID, *Message) *Message { return NewMessage().AddString("who", "b") })
	b.RegisterHandler("slow", func(keys.PeerID, *Message) *Message {
		time.Sleep(time.Millisecond)
		return NewMessage().AddString("who", "b")
	})
	for i := 0; i < 50; i++ {
		_, err := a.Request(context.Background(), b.PeerID(), "slow", NewMessage(), time.Millisecond)
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("a request racing its timer returned %v", err)
		}
		resp, err := a.Request(context.Background(), b.PeerID(), "echo", NewMessage(), 10*time.Second)
		if err != nil {
			t.Fatalf("the request after one that raced its timer returned %v, want its answer", err)
		}
		if who, _ := resp.GetString("who"); who != "b" {
			t.Fatalf("answered %q", who)
		}
	}
}

// TestRequestTableCloseFailsPending: Close fails every waiting request at
// once, however long its timeout.
func TestRequestTableCloseFailsPending(t *testing.T) {
	_, a, b := pair(t)
	const waiting = 4
	errs := make(chan error, waiting)
	for i := 0; i < waiting; i++ {
		go func() {
			_, err := a.Request(context.Background(), b.PeerID(), "void", NewMessage(), time.Hour)
			errs <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for pendingLen(a) != waiting {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests waiting", pendingLen(a), waiting)
		}
		time.Sleep(time.Millisecond)
	}
	a.Close()
	for i := 0; i < waiting; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("a request pending at Close returned %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close left a request waiting")
		}
	}
	if got := pendingLen(a); got != 0 {
		t.Fatalf("%d entries left in the request table after Close", got)
	}
}

// TestRequestTableConcurrent: requests from one endpoint at once, some
// answered and some left to time out, each get their own answer or their
// own timeout, and leave the table empty.
func TestRequestTableConcurrent(t *testing.T) {
	_, a, b := pair(t)
	b.RegisterHandler("id", func(_ keys.PeerID, m *Message) *Message {
		v, _ := m.Get("v")
		return NewMessage().Add("v", bytes.Clone(v))
	})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i byte) {
			defer wg.Done()
			service, timeout := "id", 10*time.Second
			if i%4 == 3 {
				service, timeout = "void", 10*time.Millisecond
			}
			resp, err := a.Request(context.Background(), b.PeerID(), service, NewMessage().Add("v", []byte{i}), timeout)
			if service == "void" {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("unanswered request %d returned %v", i, err)
				}
				return
			}
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if v, _ := resp.Get("v"); len(v) != 1 || v[0] != i {
				t.Errorf("request %d was answered %v", i, v)
			}
		}(byte(i))
	}
	wg.Wait()
	if got := pendingLen(a); got != 0 {
		t.Fatalf("%d entries left in the request table", got)
	}
}
