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
// handler that does nothing with them. What it allocates is the frame
// and the Message with its elements behind it: no goroutine is started,
// nothing is copied, and the sender's ID is interned.
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

func TestGateSendDeliver(t *testing.T) { perfgate.Run(t, BenchmarkSendDeliver, 2, 20000) }

// BenchmarkRequest is one round trip between two endpoints under a
// timeout, as a client's broker call makes it: the request ID is drawn
// into an array and keyed by it, the timeout is one timer, and the
// handler answers with a response it keeps. What it allocates is the two
// frames and their two parses, the waiting channel (its buffer apart)
// and the timer (its channel and buffer apart): no context, no request ID.
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

// TestGateRequest holds a round trip to its nine allocations, and to ten
// under the race detector, whose build of crypto/rand.Read moves the
// request ID it fills to the heap.
func TestGateRequest(t *testing.T) {
	allocs := int64(9)
	if perfgate.Race {
		allocs++
	}
	perfgate.Run(t, BenchmarkRequest, allocs, 50000)
}
