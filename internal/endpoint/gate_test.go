package endpoint

import (
	"bytes"
	"context"
	"testing"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/perfgate"
	"jxtaoverlay/internal/simnet"
)

// BenchmarkSendDeliver is one 64 B message through the endpoint alone:
// Service.Send builds the frame, the fabric hands that buffer to a
// delivery goroutine parked after the previous message, and deliver
// reads the prefix where it lies and hands the parsed elements to a
// handler that does nothing with them. What it allocates is the frame:
// the elements are parsed into a table lent from the pool for the
// handler's call, no goroutine is started, nothing is copied, and the
// sender's ID is interned.
func BenchmarkSendDeliver(b *testing.B) {
	n := simnet.NewNetwork(simnet.ProfileLocal)
	defer n.Close()
	a, err := NewService(n, "urn:jxta:cbid-sender")
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewService(n, "urn:jxta:cbid-recipient")
	if err != nil {
		b.Fatal(err)
	}
	got := make(chan struct{}, 1)
	r.RegisterHandler("jxta:pipe:p", func(keys.PeerID, *Message) *Message {
		got <- struct{}{}
		return nil
	})
	elems := []Element{{"sec:env", bytes.Repeat([]byte{0xA5}, 64)}, {"group", []byte("bench")}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.SendElements(r.PeerID(), "jxta:pipe:", "p", nil, elems...); err != nil {
			b.Fatal(err)
		}
		<-got
	}
}

func TestGateSendDeliver(t *testing.T) { perfgate.Run(t, BenchmarkSendDeliver, 1, 20000) }

// BenchmarkRequest is one round trip between two endpoints under a
// timeout, as a client's broker call makes it: the request ID is drawn
// into an array and keyed by it, the wait is a pooled waiter whose timer
// is reset, and the handler answers with a response it keeps. What it
// allocates is the two frames and the response's table, which the caller
// keeps (the request's is lent to its handler for the call): no context,
// no request ID, no channel, no timer.
func BenchmarkRequest(b *testing.B) {
	n := simnet.NewNetwork(simnet.ProfileLocal)
	defer n.Close()
	a, err := NewService(n, "urn:jxta:cbid-caller")
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewService(n, "urn:jxta:cbid-callee")
	if err != nil {
		b.Fatal(err)
	}
	answer := NewMessage().AddString("ok", "1")
	r.RegisterHandler("echo", func(keys.PeerID, *Message) *Message { return answer })
	req := NewMessage().AddString("op", "noop")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := a.Request(ctx, r.PeerID(), "echo", req, 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if ok, _ := resp.Get("ok"); string(ok) != "1" {
			b.Fatalf("answered %+v", resp.Elements)
		}
	}
}

// TestGateRequest holds a round trip to its three allocations. Under the
// race detector it allows three more: its build of crypto/rand.Read
// moves the request ID it fills to the heap, and its sync.Pool drops one
// Put in four, so a quarter of the round trips build a new waiter (six
// allocations: the waiter, its channel and buffer, the timer and its
// channel and buffer) and a quarter of the tables lent to the two
// deliveries are new.
func TestGateRequest(t *testing.T) {
	allocs := int64(3)
	if perfgate.Race {
		allocs += 3
	}
	perfgate.Run(t, BenchmarkRequest, allocs, 50000)
}
