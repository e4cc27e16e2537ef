package control

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/discovery"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/pipes"
	"jxtaoverlay/internal/simnet"
)

func newModule(t *testing.T, net *simnet.Network, id string) *Module {
	t.Helper()
	ep, err := endpoint.NewService(net, keys.PeerID(id))
	if err != nil {
		t.Fatal(err)
	}
	m := New(ep, discovery.NewCache(ep.Now), events.NewBus())
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
	m := newModule(t, net, "urn:jxta:m1")
	adv, err := m.BindGroupPipe("math")
	if err != nil {
		t.Fatalf("BindGroupPipe: %v", err)
	}
	if adv.Group != "math" || adv.PeerID != "urn:jxta:m1" || adv.PipeType != advert.PipeUnicast {
		t.Fatalf("adv = %+v", adv)
	}
	// Idempotent: same group returns the same advertisement.
	again, err := m.BindGroupPipe("math")
	if err != nil || again.PipeID != adv.PipeID {
		t.Fatalf("re-bind = %+v, %v", again, err)
	}
	// Cached locally.
	if _, err := m.Cache().Lookup(advert.TypePipe, adv.PipeID); err != nil {
		t.Fatal("pipe advertisement not cached")
	}
	if got, ok := m.GroupPipeAdv("math"); !ok || got.PipeID != adv.PipeID {
		t.Fatal("GroupPipeAdv mismatch")
	}
	if got := m.BoundGroups(); len(got) != 1 || got[0] != "math" {
		t.Fatalf("BoundGroups = %v", got)
	}
}

func TestMessagePumpDelivers(t *testing.T) {
	net := testNet(t)
	recv := newModule(t, net, "urn:jxta:recv")
	send := newModule(t, net, "urn:jxta:send")

	got := make(chan string, 1)
	recv.SetMessageHandler(func(group string, d pipes.Delivery) {
		body, _ := d.Msg.GetString("body")
		got <- group + "/" + string(d.From) + "/" + body
	})
	adv, err := recv.BindGroupPipe("g")
	if err != nil {
		t.Fatal(err)
	}
	if err := send.SendOnPipe(adv, endpoint.NewMessage().AddString("body", "hi")); err != nil {
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

func TestUnbindGroupPipe(t *testing.T) {
	net := testNet(t)
	m := newModule(t, net, "urn:jxta:m1")
	if _, err := m.BindGroupPipe("g"); err != nil {
		t.Fatal(err)
	}
	m.UnbindGroupPipe("g")
	if _, ok := m.GroupPipeAdv("g"); ok {
		t.Fatal("pipe adv survived unbind")
	}
	if len(m.BoundGroups()) != 0 {
		t.Fatal("group survived unbind")
	}
	m.UnbindGroupPipe("g") // idempotent
}

func TestCloseRejectsBind(t *testing.T) {
	net := testNet(t)
	m := newModule(t, net, "urn:jxta:m1")
	m.Close()
	if _, err := m.BindGroupPipe("g"); err != ErrClosed {
		t.Fatalf("BindGroupPipe after Close = %v", err)
	}
	m.Close() // idempotent
}

func TestAnnouncer(t *testing.T) {
	net := testNet(t)
	m := newModule(t, net, "urn:jxta:m1")
	var published atomic.Int32
	m.StartAnnouncer(20*time.Millisecond, "alice",
		func() []string { return []string{"g1", "g2"} },
		func(_ context.Context, adv advert.Advertisement) error {
			pres, ok := adv.(*advert.Presence)
			if !ok || pres.Name != "alice" || pres.Status != advert.StatusOnline {
				t.Errorf("unexpected announcement %+v", adv)
			}
			published.Add(1)
			return nil
		})
	deadline := time.Now().Add(5 * time.Second)
	for published.Load() < 4 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if published.Load() < 4 {
		t.Fatalf("announcer published %d advertisements", published.Load())
	}
	m.StopAnnouncer()
	count := published.Load()
	time.Sleep(60 * time.Millisecond)
	if published.Load() > count+1 { // one tick may be in flight
		t.Fatal("announcer kept publishing after stop")
	}
}

func TestEmit(t *testing.T) {
	net := testNet(t)
	m := newModule(t, net, "urn:jxta:m1")
	col := events.NewCollector(m.Bus())
	m.Emit(events.GroupUpdated, "urn:jxta:x", "g", map[string]string{"k": "v"}, []byte("d"))
	e, ok := col.WaitFor(events.GroupUpdated, 5*time.Second)
	if !ok || e.Attr("k") != "v" || string(e.Data) != "d" {
		t.Fatalf("event = %+v, %v", e, ok)
	}
}
