package simnet

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func collector() (Handler, *[][]byte, *sync.Mutex) {
	var mu sync.Mutex
	var got [][]byte
	return func(p Packet) {
		mu.Lock()
		got = append(got, p.Payload)
		mu.Unlock()
	}, &got, &mu
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not met within deadline")
}

func TestSendDeliver(t *testing.T) {
	n := NewNetwork(ProfileLocal)
	defer n.Close()
	h, got, mu := collector()
	if err := n.Attach("a", func(Packet) {}); err != nil {
		t.Fatalf("Attach a: %v", err)
	}
	if err := n.Attach("b", h); err != nil {
		t.Fatalf("Attach b: %v", err)
	}
	if err := n.Send("a", "b", []byte("hello")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(*got) == 1 })
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal((*got)[0], []byte("hello")) {
		t.Fatalf("payload = %q", (*got)[0])
	}
}

// TestDeliveredPacketIsSentBuffer: the network delivers the buffer the
// sender handed it, not a copy, and a tap sees its bytes as sent — the
// ciphertext — before the receiving handler opens it where it lies.
func TestDeliveredPacketIsSentBuffer(t *testing.T) {
	n := NewNetwork(ProfileLocal)
	defer n.Close()
	var tapped []byte
	n.AddTap(func(p Packet) { tapped = bytes.Clone(p.Payload) })
	delivered := make(chan []byte, 1)
	n.Attach("a", func(Packet) {})
	n.Attach("b", func(p Packet) {
		copy(p.Payload, "plaintext!") // the recipient opens in place
		delivered <- p.Payload
	})
	buf := []byte("ciphertext")
	if err := n.Send("a", "b", buf); err != nil {
		t.Fatalf("Send: %v", err)
	}
	var got []byte
	select {
	case got = <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("not delivered")
	}
	if unsafe.SliceData(got) != unsafe.SliceData(buf) || len(got) != len(buf) {
		t.Fatal("the delivered packet is a copy of the sent buffer")
	}
	if string(tapped) != "ciphertext" {
		t.Fatalf("the tap saw %q, want the bytes as sent", tapped)
	}
	if string(buf) != "plaintext!" {
		t.Fatalf("the recipient's in-place open is not in the buffer sent: %q", buf)
	}
}

func TestSendErrors(t *testing.T) {
	n := NewNetwork(ProfileLocal)
	defer n.Close()
	n.Attach("a", func(Packet) {})
	if err := n.Send("ghost", "a", nil); err == nil {
		t.Fatal("Send from unknown node succeeded")
	}
	if err := n.Send("a", "ghost", nil); err == nil {
		t.Fatal("Send to unattached node succeeded")
	}
}

func TestDuplicateAttach(t *testing.T) {
	n := NewNetwork(ProfileLocal)
	defer n.Close()
	if err := n.Attach("a", func(Packet) {}); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if err := n.Attach("a", func(Packet) {}); err == nil {
		t.Fatal("duplicate Attach succeeded")
	}
	if err := n.Attach("b", nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestDetach(t *testing.T) {
	n := NewNetwork(ProfileLocal)
	defer n.Close()
	n.Attach("a", func(Packet) {})
	n.Attach("b", func(Packet) {})
	n.Detach("b")
	if n.Attached("b") {
		t.Fatal("b still attached after Detach")
	}
	if err := n.Send("a", "b", nil); err == nil {
		t.Fatal("Send to detached node succeeded")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := NewNetwork(ProfileLocal)
	defer n.Close()
	h, got, mu := collector()
	n.Attach("a", func(Packet) {})
	n.Attach("b", h)
	n.Partition("a", "b")
	if err := n.Send("a", "b", []byte("x")); err == nil {
		t.Fatal("Send across partition succeeded")
	}
	if err := n.Send("b", "a", []byte("x")); err == nil {
		t.Fatal("partition must be bidirectional")
	}
	n.Heal("a", "b")
	if err := n.Send("a", "b", []byte("x")); err != nil {
		t.Fatalf("Send after Heal: %v", err)
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(*got) == 1 })
}

func TestNATReachability(t *testing.T) {
	n := NewNetwork(ProfileLocal)
	defer n.Close()
	n.Attach("cl1", func(Packet) {})
	n.Attach("cl2", func(Packet) {})
	n.Attach("broker", func(Packet) {})
	n.SetReachable("cl1", "cl2", false)
	if err := n.Send("cl1", "cl2", nil); err == nil {
		t.Fatal("NATed direct send succeeded")
	}
	// One-way: cl2 may still reach cl1, and broker is always reachable.
	if err := n.Send("cl2", "cl1", nil); err != nil {
		t.Fatalf("reverse direction should work: %v", err)
	}
	if err := n.Send("cl1", "broker", nil); err != nil {
		t.Fatalf("broker path should work: %v", err)
	}
	n.SetReachable("cl1", "cl2", true)
	if err := n.Send("cl1", "cl2", nil); err != nil {
		t.Fatalf("Send after restoring reachability: %v", err)
	}
}

func TestLatencyOrdering(t *testing.T) {
	n := NewNetwork(ProfileLocal)
	defer n.Close()
	var deliveredAt atomic.Int64
	n.Attach("a", func(Packet) {})
	n.Attach("b", func(Packet) { deliveredAt.Store(time.Now().UnixNano()) })
	n.SetLink("a", "b", LinkProfile{Latency: 30 * time.Millisecond})
	start := time.Now()
	if err := n.Send("a", "b", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	waitFor(t, func() bool { return deliveredAt.Load() != 0 })
	elapsed := time.Duration(deliveredAt.Load() - start.UnixNano())
	if elapsed < 25*time.Millisecond {
		t.Fatalf("delivery after %v, want >= ~30ms", elapsed)
	}
}

func TestBandwidthModel(t *testing.T) {
	p := LinkProfile{Latency: 10 * time.Millisecond, Bandwidth: 1_000_000}
	if got := p.TransferTime(0); got != 10*time.Millisecond {
		t.Fatalf("TransferTime(0) = %v", got)
	}
	// 1 MB at 1 MB/s = 1 s + 10 ms latency.
	if got := p.TransferTime(1_000_000); got != 1010*time.Millisecond {
		t.Fatalf("TransferTime(1MB) = %v", got)
	}
	inf := LinkProfile{Latency: time.Millisecond}
	if got := inf.TransferTime(1 << 30); got != time.Millisecond {
		t.Fatalf("infinite bandwidth TransferTime = %v", got)
	}
}

func TestTransferTimeMonotonic(t *testing.T) {
	p := ProfileLAN
	prev := time.Duration(-1)
	for n := 0; n < 1<<20; n = n*2 + 1 {
		d := p.TransferTime(n)
		if d < prev {
			t.Fatalf("TransferTime not monotonic at %d: %v < %v", n, d, prev)
		}
		prev = d
	}
}

func TestLossDeterministicSeed(t *testing.T) {
	run := func(seed int64) uint64 {
		n := NewNetworkSeeded(LinkProfile{Loss: 0.5}, seed)
		defer n.Close()
		n.Attach("a", func(Packet) {})
		n.Attach("b", func(Packet) {})
		for i := 0; i < 200; i++ {
			if err := n.Send("a", "b", []byte("x")); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		n.Close()
		return n.Stats().Dropped
	}
	d1, d2 := run(42), run(42)
	if d1 != d2 {
		t.Fatalf("same seed produced different drop counts: %d vs %d", d1, d2)
	}
	if d1 == 0 || d1 == 200 {
		t.Fatalf("loss 0.5 dropped %d of 200, implausible", d1)
	}
}

func TestTapSeesAllTraffic(t *testing.T) {
	n := NewNetworkSeeded(LinkProfile{Loss: 0.9}, 7)
	defer n.Close()
	n.Attach("a", func(Packet) {})
	n.Attach("b", func(Packet) {})
	var tapped atomic.Int64
	n.AddTap(func(Packet) { tapped.Add(1) })
	for i := 0; i < 50; i++ {
		if err := n.Send("a", "b", []byte("secret")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	// The tap observes transmissions even when the wire then drops them.
	if got := tapped.Load(); got != 50 {
		t.Fatalf("tap saw %d packets, want 50", got)
	}
}

func TestStatsCounters(t *testing.T) {
	n := NewNetwork(ProfileLocal)
	n.Attach("a", func(Packet) {})
	n.Attach("b", func(Packet) {})
	payload := []byte("12345")
	for i := 0; i < 10; i++ {
		if err := n.Send("a", "b", payload); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	n.Close() // waits for delivery
	s := n.Stats()
	if s.Sent != 10 || s.Delivered != 10 || s.Dropped != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Bytes != 50 {
		t.Fatalf("bytes = %d, want 50", s.Bytes)
	}
}

func TestCloseRejectsSends(t *testing.T) {
	n := NewNetwork(ProfileLocal)
	n.Attach("a", func(Packet) {})
	n.Attach("b", func(Packet) {})
	n.Close()
	if err := n.Send("a", "b", nil); err == nil {
		t.Fatal("Send after Close succeeded")
	}
	if err := n.Attach("c", func(Packet) {}); err == nil {
		t.Fatal("Attach after Close succeeded")
	}
	n.Close() // second Close must be a no-op
}

func TestConcurrentSends(t *testing.T) {
	n := NewNetwork(ProfileLocal)
	var count atomic.Int64
	n.Attach("sink", func(Packet) { count.Add(1) })
	const senders, per = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		id := NodeID(string(rune('a' + s)))
		if err := n.Attach(id, func(Packet) {}); err != nil {
			t.Fatalf("Attach: %v", err)
		}
		wg.Add(1)
		go func(id NodeID) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := n.Send(id, "sink", []byte("m")); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	n.Close()
	if got := count.Load(); got != senders*per {
		t.Fatalf("delivered %d, want %d", got, senders*per)
	}
}

func TestProfileByName(t *testing.T) {
	for name, want := range map[string]LinkProfile{
		"local": ProfileLocal, "lan": ProfileLAN, "paperlan": ProfilePaperLAN, "wan": ProfileWAN,
	} {
		if got, err := ProfileByName(name); err != nil || got != want {
			t.Errorf("ProfileByName(%q) = %+v, %v; want %+v", name, got, err, want)
		}
	}
	if _, err := ProfileByName("lossy"); err == nil {
		t.Error("an unknown profile name resolved")
	}
}
