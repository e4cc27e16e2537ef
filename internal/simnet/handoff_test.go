package simnet

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/perfgate"
)

// deliveryGoroutines reports whether any goroutine is in n's delivery
// loop: a dump prints the receiver of each frame, so another network's
// goroutines do not count.
func deliveryGoroutines(n *Network) bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), fmt.Sprintf("(*Network).deliverLoop(%p", n))
}

// TestHandoffBlockedHandlerSeesNextPacket: a handler that blocks until
// another packet reaches its own node completes. A warm-up delivery
// leaves a goroutine parking, which the first packet is handed to once
// it waits; the second, finding none parked, gets one of its own.
// Deliveries made one after another on one goroutine would never let
// the first return.
func TestHandoffBlockedHandlerSeesNextPacket(t *testing.T) {
	n := NewNetwork(ProfileLocal)
	defer n.Close()
	warm := make(chan struct{})
	second := make(chan struct{})
	done := make(chan struct{})
	n.Attach("a", func(Packet) {})
	n.Attach("b", func(p Packet) {
		switch string(p.Payload) {
		case "warm":
			close(warm)
		case "first":
			select {
			case <-second:
				close(done)
			case <-time.After(5 * time.Second):
			}
		case "second":
			close(second)
		}
	})
	if err := n.Send("a", "b", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	<-warm
	waitFor(t, func() bool { return n.parked.Load() == 1 })
	for _, m := range []string{"first", "second"} {
		if err := n.Send("a", "b", []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a handler waiting for the next packet to its node never saw it")
	}
}

// TestHandoffCloseLeavesNoDeliveryGoroutine: goroutines parked after
// their deliveries wait for the next packet until Close, which
// releases them all.
func TestHandoffCloseLeavesNoDeliveryGoroutine(t *testing.T) {
	n := NewNetwork(ProfileLocal)
	var wg sync.WaitGroup
	n.Attach("a", func(Packet) {})
	n.Attach("b", func(Packet) { wg.Done() })
	const packets = 20
	wg.Add(packets)
	for i := 0; i < packets; i++ {
		if err := n.Send("a", "b", nil); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	// A goroutine's dump names deliverLoop only between its first
	// instruction and its last: both ends are waited for.
	waitFor(t, func() bool { return deliveryGoroutines(n) })
	n.Close()
	waitFor(t, func() bool { return !deliveryGoroutines(n) })
	if p := n.parked.Load(); p != 0 {
		t.Fatalf("%d delivery goroutines still counted as parked", p)
	}
}

// TestHandoffDetachedInFlightDropped: a packet whose destination
// detaches while it is on the wire is counted as dropped, not
// delivered, whichever goroutine carries it.
func TestHandoffDetachedInFlightDropped(t *testing.T) {
	n := NewNetwork(ProfileLocal)
	delivered := make(chan struct{}, 2)
	n.Attach("a", func(Packet) {})
	n.Attach("b", func(Packet) { delivered <- struct{}{} })
	if err := n.Send("a", "b", nil); err != nil {
		t.Fatal(err)
	}
	<-delivered
	waitFor(t, func() bool { return n.parked.Load() == 1 })
	n.SetLink("a", "b", LinkProfile{Latency: 20 * time.Millisecond})
	if err := n.Send("a", "b", nil); err != nil {
		t.Fatal(err)
	}
	n.Detach("b")
	n.Close()
	if s := n.Stats(); s.Sent != 2 || s.Delivered != 1 || s.Dropped != 1 {
		t.Fatalf("stats = %+v, want 2 sent, 1 delivered, 1 dropped", s)
	}
	if len(delivered) != 0 {
		t.Fatal("the packet to the detached node reached its handler")
	}
}

// TestHandoffDeliversInDelayOrder: a packet on a 1 ms link sent after
// one on a 30 ms link arrives first. The sleeping delivery holds up no
// other, wherever the two are carried.
func TestHandoffDeliversInDelayOrder(t *testing.T) {
	n := NewNetwork(ProfileLocal)
	defer n.Close()
	var mu sync.Mutex
	var order []NodeID
	arrived := make(chan struct{}, 3)
	n.Attach("slow", func(Packet) {})
	n.Attach("fast", func(Packet) {})
	n.Attach("b", func(p Packet) {
		mu.Lock()
		order = append(order, p.From)
		mu.Unlock()
		arrived <- struct{}{}
	})
	// Park a goroutine first, for the slow packet to take once it waits
	// while the fast one needs another.
	if err := n.Send("fast", "b", nil); err != nil {
		t.Fatal(err)
	}
	<-arrived
	waitFor(t, func() bool { return n.parked.Load() == 1 })
	n.SetLink("slow", "b", LinkProfile{Latency: 30 * time.Millisecond})
	n.SetLink("fast", "b", LinkProfile{Latency: time.Millisecond})
	if err := n.Send("slow", "b", nil); err != nil {
		t.Fatal(err)
	}
	if err := n.Send("fast", "b", nil); err != nil {
		t.Fatal(err)
	}
	<-arrived
	<-arrived
	mu.Lock()
	defer mu.Unlock()
	if order[1] != "fast" || order[2] != "slow" {
		t.Fatalf("arrival order %v, want the 1 ms link's packet before the 30 ms link's", order[1:])
	}
}

// BenchmarkSend is one empty packet sent and delivered on an
// instantaneous link once a delivery goroutine is parked: the packet
// goes to that goroutine, and nothing is allocated.
func BenchmarkSend(b *testing.B) {
	n := NewNetwork(ProfileLocal)
	defer n.Close()
	got := make(chan struct{}, 1)
	n.Attach("a", func(Packet) {})
	n.Attach("b", func(Packet) { got <- struct{}{} })
	send := func() {
		if err := n.Send("a", "b", nil); err != nil {
			b.Fatal(err)
		}
		<-got
	}
	send()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}

// A Send that started a goroutine would allocate the goroutine's
// closure over its packet.
func TestGateSend(t *testing.T) { perfgate.Run(t, BenchmarkSend, 0, perfgate.NoLimit) }
