package control

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/discovery"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/waituntil"
)

func newModule(t *testing.T, net *simnet.Network, id string, h MsgHandler) *Module {
	t.Helper()
	ep, err := endpoint.NewService(net, keys.PeerID(id))
	if err != nil {
		t.Fatal(err)
	}
	m := New(ep, discovery.NewCache(ep.Now), events.NewBus(), h)
	t.Cleanup(m.Close)
	return m
}

func testNet(t *testing.T) *simnet.Network {
	t.Helper()
	n := simnet.NewNetwork(simnet.ProfileLocal)
	t.Cleanup(n.Close)
	return n
}

func TestBindGroupPipe(t *testing.T) {
	net := testNet(t)
	m := newModule(t, net, "urn:jxta:m1", nil)
	adv, err := m.BindGroupPipe("math")
	if err != nil {
		t.Fatalf("BindGroupPipe: %v", err)
	}
	if adv.Group != "math" || adv.PeerID != "urn:jxta:m1" || adv.PipeType != advert.PipeUnicast ||
		adv.PipeID != advert.GroupPipeID("urn:jxta:m1", "math") {
		t.Fatalf("adv = %+v", adv)
	}
	// Idempotent: same group returns the same advertisement.
	again, err := m.BindGroupPipe("math")
	if err != nil || again != adv {
		t.Fatalf("re-bind = %+v, %v", again, err)
	}
	// Cached locally.
	if _, err := m.Cache().Lookup(advert.TypePipe, adv.PipeID); err != nil {
		t.Fatal("pipe advertisement not cached")
	}
	if got, ok := m.GroupPipeAdv("math"); !ok || got != adv {
		t.Fatal("GroupPipeAdv mismatch")
	}
	if _, ok := m.GroupPipeAdv("art"); ok {
		t.Fatal("GroupPipeAdv found a group never bound")
	}
}

func TestMessagePumpDelivers(t *testing.T) {
	net := testNet(t)
	got := make(chan string, 1)
	recv := newModule(t, net, "urn:jxta:recv", func(group string, from keys.PeerID, msg *endpoint.Message) {
		body, _ := msg.GetString("body")
		got <- group + "/" + string(from) + "/" + body
	})
	send := newModule(t, net, "urn:jxta:send", nil)
	adv, err := recv.BindGroupPipe("g")
	if err != nil {
		t.Fatal(err)
	}
	if err := send.SendOnPipe(adv, nil, endpoint.Element{Name: "body", Data: []byte("hi")}); err != nil {
		t.Fatalf("SendOnPipe: %v", err)
	}
	select {
	case v := <-got:
		if v != "g/urn:jxta:send/hi" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pump never delivered")
	}
}

// received is what a test handler reads of one message, in the call: a
// handler's message table is taken back when it returns.
type received struct {
	from keys.PeerID
	body string
}

// TestGroupPipeSendReceive: a bound group pipe is a unicast endpoint
// service any peer can reach, control module or not. The handler sees the
// sender's ID and the message body.
func TestGroupPipeSendReceive(t *testing.T) {
	net := testNet(t)
	got := make(chan received, 1)
	recv := newModule(t, net, "urn:jxta:b", func(_ string, from keys.PeerID, msg *endpoint.Message) {
		body, _ := msg.GetString("body")
		got <- received{from, body}
	})
	a, err := endpoint.NewService(net, "urn:jxta:a")
	if err != nil {
		t.Fatal(err)
	}
	adv, err := recv.BindGroupPipe("g")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(adv.PeerID, PipeService+adv.PipeID, endpoint.NewMessage().AddString("body", "ping")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case d := <-got:
		if d.from != a.PeerID() {
			t.Fatalf("from = %q", d.from)
		}
		if d.body != "ping" {
			t.Fatalf("body = %q", d.body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("nothing delivered")
	}
}

// TestGroupPipeBurstDeliveredOnce: a group pipe does not drop what its
// queue has no room for. While the handler is held, 300 messages — more
// than twice the queue — are sent; once it is released, each is handed to
// it exactly once. (The queue used to discard the overflow after the
// sender's Send had returned nil, and count nothing.)
func TestGroupPipeBurstDeliveredOnce(t *testing.T) {
	const burst = 300
	net := testNet(t)
	release := make(chan struct{})
	var mu sync.Mutex
	seen := make(map[string]int)
	recv := newModule(t, net, "urn:jxta:recv", func(_ string, _ keys.PeerID, msg *endpoint.Message) {
		<-release
		body, _ := msg.GetString("body")
		mu.Lock()
		seen[body]++
		mu.Unlock()
	})
	send := newModule(t, net, "urn:jxta:send", nil)
	adv, err := recv.BindGroupPipe("g")
	if err != nil {
		t.Fatal(err)
	}
	for i := range burst {
		if err := send.SendOnPipe(adv, nil, endpoint.Element{Name: "body", Data: []byte(strconv.Itoa(i))}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	close(release)
	waituntil.True(10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) == burst
	})
	net.Close() // every delivery has returned: nothing more can arrive
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != burst {
		t.Fatalf("%d of %d messages delivered", len(seen), burst)
	}
	for body, n := range seen {
		if n != 1 {
			t.Fatalf("message %s delivered %d times", body, n)
		}
	}
}

// TestGroupPipeBurstKeepsEachFramesElements: several senders burst into
// one pipe while its handler is held, so its queue fills and deliveries
// wait on the fabric's goroutines. Each queued message is a pooled copy of
// the table lent to its delivery, given back once the handler returns,
// and each reaches the handler once with its own frame's elements — its
// sender, its number, a body made of both and as many padding elements as
// its sender sends, on either side of the pooled table's room — never
// another frame's.
func TestGroupPipeBurstKeepsEachFramesElements(t *testing.T) {
	const senders, each = 4, 64
	net := testNet(t)
	release := make(chan struct{})
	var mu sync.Mutex
	seen := make(map[string]int)
	var wrong []string
	recv := newModule(t, net, "urn:jxta:recv", func(_ string, from keys.PeerID, msg *endpoint.Message) {
		<-release
		who, _ := msg.GetString("who")
		seq, _ := msg.GetString("seq")
		body, _ := msg.GetString("body")
		pad, _ := msg.GetString("pad")
		mu.Lock()
		defer mu.Unlock()
		if n, _ := strconv.Atoi(pad); who != string(from) || body != who+"/"+seq || len(msg.Elements) != 4+n {
			wrong = append(wrong, fmt.Sprintf("from %s: who=%s seq=%s body=%s, %d elements", from, who, seq, body, len(msg.Elements)))
		}
		seen[body]++
	})
	adv, err := recv.BindGroupPipe("g")
	if err != nil {
		t.Fatal(err)
	}
	var sent sync.WaitGroup
	for s := range senders {
		send := newModule(t, net, "urn:jxta:send-"+strconv.Itoa(s), nil)
		who := string(send.ep.PeerID())
		pad := 3 * s
		sent.Add(1)
		go func() {
			defer sent.Done()
			for i := range each {
				seq := strconv.Itoa(i)
				elems := []endpoint.Element{{Name: "who", Data: []byte(who)}, {Name: "seq", Data: []byte(seq)},
					{Name: "body", Data: []byte(who + "/" + seq)}, {Name: "pad", Data: []byte(strconv.Itoa(pad))}}
				for range pad {
					elems = append(elems, endpoint.Element{Name: "x", Data: []byte(seq)})
				}
				if err := send.SendOnPipe(adv, nil, elems...); err != nil {
					t.Errorf("%s send %d: %v", who, i, err)
					return
				}
			}
		}()
	}
	sent.Wait()
	close(release)
	waituntil.True(10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) == senders*each
	})
	net.Close() // every delivery has returned: nothing more can arrive
	mu.Lock()
	defer mu.Unlock()
	if len(wrong) > 0 {
		t.Fatalf("%d messages reached the handler with another's elements, first: %s", len(wrong), wrong[0])
	}
	if len(seen) != senders*each {
		t.Fatalf("%d of %d messages delivered", len(seen), senders*each)
	}
	for body, n := range seen {
		if n != 1 {
			t.Fatalf("message %s delivered %d times", body, n)
		}
	}
}

// TestUnbindReleasesWaitingDeliveries: deliveries waiting for room in a
// pipe whose handler is stuck are let go as soon as the pipe is unbound,
// so the fabric's Close, which waits for every delivery, returns. The
// unbind itself returns once the handler has, and the pump with it.
func TestUnbindReleasesWaitingDeliveries(t *testing.T) {
	net := testNet(t)
	stuck := make(chan struct{})
	recv := newModule(t, net, "urn:jxta:recv", func(string, keys.PeerID, *endpoint.Message) { <-stuck })
	send := newModule(t, net, "urn:jxta:send", nil)
	adv, err := recv.BindGroupPipe("g")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*pipeQueue; i++ {
		if err := send.SendOnPipe(adv, nil); err != nil {
			t.Fatal(err)
		}
	}
	unbound := make(chan struct{})
	go func() { recv.UnbindGroupPipe("g"); close(unbound) }()
	closed := make(chan struct{})
	go func() { net.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("deliveries still waiting on an unbound pipe")
	}
	close(stuck)
	select {
	case <-unbound:
	case <-time.After(10 * time.Second):
		t.Fatal("the unbind did not return once the handler had")
	}
}

// TestUnbindWaitsForPump: UnbindGroupPipe and Close return only once the
// pipe's pump has left its handler and exited, so that nothing the pipe
// delivered is still being handled when its owner resets what the
// handler writes to (a session's channels, at logout).
func TestUnbindWaitsForPump(t *testing.T) {
	for _, viaClose := range []bool{false, true} {
		net := testNet(t)
		entered, release := make(chan struct{}), make(chan struct{})
		var handling atomic.Bool
		recv := newModule(t, net, "urn:jxta:recv", func(string, keys.PeerID, *endpoint.Message) {
			handling.Store(true)
			close(entered)
			<-release
			time.Sleep(10 * time.Millisecond) // still inside when release is seen
			handling.Store(false)
		})
		send := newModule(t, net, "urn:jxta:send", nil)
		adv, err := recv.BindGroupPipe("g")
		if err != nil {
			t.Fatal(err)
		}
		if err := send.SendOnPipe(adv, nil); err != nil {
			t.Fatal(err)
		}
		<-entered
		unbound := make(chan struct{})
		go func() {
			if viaClose {
				recv.Close()
			} else {
				recv.UnbindGroupPipe("g")
			}
			close(unbound)
		}()
		select {
		case <-unbound:
			t.Fatalf("close=%v: returned while the pump was inside its handler", viaClose)
		case <-time.After(50 * time.Millisecond):
		}
		close(release)
		<-unbound
		if handling.Load() {
			t.Fatalf("close=%v: returned before the handler did", viaClose)
		}
	}
}

// TestPumpUnbindsItsOwnPipe: a handler that unbinds pipes — its own among
// them, as an application that logs out on a message does — is not made
// to wait for its own pump, nor for another pump that might be waiting
// for it.
func TestPumpUnbindsItsOwnPipe(t *testing.T) {
	net := testNet(t)
	var m *Module
	done := make(chan struct{})
	m = newModule(t, net, "urn:jxta:recv", func(group string, _ keys.PeerID, _ *endpoint.Message) {
		if group == "own" {
			m.UnbindGroupPipe("own")
			m.Close()
			close(done)
		}
	})
	send := newModule(t, net, "urn:jxta:send", nil)
	adv, err := m.BindGroupPipe("own")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.BindGroupPipe("other"); err != nil {
		t.Fatal(err)
	}
	if err := send.SendOnPipe(adv, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a pump unbinding its own pipe waited for itself")
	}
}

func TestUnbindGroupPipe(t *testing.T) {
	net := testNet(t)
	m := newModule(t, net, "urn:jxta:m1", nil)
	if _, err := m.BindGroupPipe("g"); err != nil {
		t.Fatal(err)
	}
	m.UnbindGroupPipe("g")
	if _, ok := m.GroupPipeAdv("g"); ok {
		t.Fatal("pipe adv survived unbind")
	}
	m.UnbindGroupPipe("g") // idempotent
}

// TestUnboundGroupPipeDiscards: closing a group pipe is idempotent, and a
// message sent to it afterwards is discarded: the send succeeds (the peer
// is there) and nothing is handed to the handler.
func TestUnboundGroupPipeDiscards(t *testing.T) {
	net := testNet(t)
	got := make(chan struct{}, 1)
	m := newModule(t, net, "urn:jxta:m1", func(string, keys.PeerID, *endpoint.Message) { got <- struct{}{} })
	send := newModule(t, net, "urn:jxta:send", nil)
	adv, err := m.BindGroupPipe("g")
	if err != nil {
		t.Fatal(err)
	}
	m.UnbindGroupPipe("g")
	m.UnbindGroupPipe("g") // idempotent
	if err := send.SendOnPipe(adv, nil); err != nil {
		t.Fatalf("SendOnPipe: %v", err)
	}
	net.Close()
	select {
	case <-got:
		t.Fatal("an unbound pipe delivered")
	default:
	}
}

func TestCloseRejectsBind(t *testing.T) {
	net := testNet(t)
	m := newModule(t, net, "urn:jxta:m1", nil)
	if _, err := m.BindGroupPipe("g"); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, ok := m.GroupPipeAdv("g"); ok {
		t.Fatal("pipe adv survived Close")
	}
	if _, err := m.BindGroupPipe("g"); err != errClosed {
		t.Fatalf("BindGroupPipe after Close = %v", err)
	}
	m.Close() // idempotent
}

func TestEmit(t *testing.T) {
	net := testNet(t)
	m := newModule(t, net, "urn:jxta:m1", nil)
	col := events.NewCollector(m.Bus())
	m.Emit(events.GroupUpdated, "urn:jxta:x", "g", map[string]string{"k": "v"}, []byte("d"))
	e, ok := col.WaitFor(events.GroupUpdated, 5*time.Second)
	if !ok || e.Attr("k") != "v" || string(e.Data) != "d" {
		t.Fatalf("event = %+v, %v", e, ok)
	}
}
