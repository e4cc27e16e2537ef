package broker_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
)

// pushTap keeps every push the broker sends to the client service: the
// buffer the fabric was handed, as a reference, and a copy of its bytes
// as they were when it was sent.
type pushTap struct {
	mu     sync.Mutex
	pushes []tappedPush
}

type tappedPush struct {
	to       simnet.NodeID
	op       string
	frame    []byte // the sent buffer itself
	snapshot []byte
}

func newPushTap(net *simnet.Network, br keys.PeerID) *pushTap {
	tap := &pushTap{}
	net.AddTap(func(p simnet.Packet) {
		if p.From != simnet.NodeID(br) {
			return
		}
		f, err := endpoint.ParseFrame(p.Payload)
		if err != nil || string(f.Service) != proto.ClientService {
			return
		}
		op, _ := f.Msg.GetString(proto.ElemOp)
		tap.mu.Lock()
		tap.pushes = append(tap.pushes, tappedPush{p.To, op, p.Payload, bytes.Clone(p.Payload)})
		tap.mu.Unlock()
	})
	return tap
}

// ops returns the ops of the pushes sent to to since the first mark
// pushes, in order.
func (tap *pushTap) ops(to keys.PeerID, mark int) []string {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	var out []string
	for _, p := range tap.pushes[mark:] {
		if p.to == simnet.NodeID(to) {
			out = append(out, p.op)
		}
	}
	return out
}

func (tap *pushTap) mark() int {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return len(tap.pushes)
}

// pushSite is one plain broker whose users all belong to "math".
type pushSite struct {
	t   *testing.T
	net *simnet.Network
	br  *broker.Broker
	tap *pushTap
}

func newPushSite(t *testing.T, users int) *pushSite {
	t.Helper()
	net := simnet.NewNetwork(simnet.ProfileLocal)
	t.Cleanup(net.Close)
	db := userdb.NewStoreIter(4)
	for i := 0; i < users; i++ {
		db.Register(fmt.Sprintf("user%d", i), "pw", "math")
	}
	br, err := broker.New(broker.Config{Name: "b", PeerID: keys.LegacyPeerID("b"), Net: net, DB: broker.LocalDB(db)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(br.Close)
	return &pushSite{t: t, net: net, br: br, tap: newPushTap(net, br.PeerID())}
}

// login brings user i online, with a collector made before its login.
func (s *pushSite) login(i int) (*client.Client, *events.Collector) {
	s.t.Helper()
	cl, err := client.New(s.net, membership.NewNone(), fmt.Sprintf("user%d", i))
	if err != nil {
		s.t.Fatal(err)
	}
	s.t.Cleanup(cl.Close)
	got := events.NewCollector(cl.Bus())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.Connect(ctx, s.br.PeerID()); err != nil {
		s.t.Fatal(err)
	}
	if err := cl.Login(ctx, "pw"); err != nil {
		s.t.Fatal(err)
	}
	return cl, got
}

func publish(t *testing.T, cl *client.Client, adv advert.Advertisement) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.PublishAdv(ctx, adv); err != nil {
		t.Fatal(err)
	}
}

// pipeAt is holder's record of owner's pipe in "math", or nil.
func pipeAt(holder, owner *client.Client) *pipeRecord {
	rec, err := holder.Cache().Lookup(advert.TypePipe, advert.GroupPipeID(owner.PeerID(), "math"))
	if err != nil {
		return nil
	}
	return &pipeRecord{rec.Doc.Canonical(), rec.Adv, rec.Received}
}

type pipeRecord struct {
	wire     []byte
	adv      advert.Advertisement
	received time.Time
}

// TestRepublishedPipeGoesAsRefresh: the first publish of a pipe
// advertisement is pushed to a resident whole; its owner publishing the
// same bytes again reaches the resident as a refresh, which the resident
// applies without a parse to the record it holds; and changed bytes are
// pushed whole again and replace that record.
func TestRepublishedPipeGoesAsRefresh(t *testing.T) {
	s := newPushSite(t, 2)
	alice, _ := s.login(0)
	mark := s.tap.mark()
	bob, _ := s.login(1)
	waitUntil(t, func() bool { return pipeAt(alice, bob) != nil })
	if ops := s.tap.ops(alice.PeerID(), mark); !slices.Contains(ops, proto.OpAdvPush) || slices.Contains(ops, proto.OpAdvRefresh) {
		t.Fatalf("bob's first publish reached alice as %v, want an advPush and no refresh", ops)
	}
	first := pipeAt(alice, bob)
	pipe := *first.adv.(*advert.Pipe)

	// The same bytes again: a refresh, and no parse at alice — the one
	// parse is the broker's, of the publish.
	time.Sleep(2 * time.Millisecond) // a refresh is received later than the record it refreshes
	mark = s.tap.mark()
	parsed := advert.ParseCalls()
	publish(t, bob, &pipe)
	waitUntil(t, func() bool { r := pipeAt(alice, bob); return r != nil && r.received.After(first.received) })
	if got := s.tap.ops(alice.PeerID(), mark); len(got) != 1 || got[0] != proto.OpAdvRefresh {
		t.Fatalf("bob's identical re-publish reached alice as %v, want one refresh", got)
	}
	if p := advert.ParseCalls() - parsed; p != 1 {
		t.Fatalf("an identical re-publish cost %d advertisement parses, want 1 (the broker's)", p)
	}
	again := pipeAt(alice, bob)
	if again.adv != first.adv || !bytes.Equal(again.wire, first.wire) {
		t.Fatal("the refresh replaced alice's record instead of putting it again")
	}

	// Other bytes: pushed whole, and alice's record is replaced.
	pipe.Name = "changed"
	mark = s.tap.mark()
	publish(t, bob, &pipe)
	waitUntil(t, func() bool { r := pipeAt(alice, bob); return r != nil && !bytes.Equal(r.wire, first.wire) })
	if got := s.tap.ops(alice.PeerID(), mark); len(got) != 1 || got[0] != proto.OpAdvPush {
		t.Fatalf("bob's changed pipe reached alice as %v, want one advPush", got)
	}
	if got := pipeAt(alice, bob).adv.(*advert.Pipe).Name; got != "changed" {
		t.Fatalf("alice holds a pipe named %q after the change", got)
	}
}

// TestPublishedEventAdvertisementsPushedWhole: a published presence or
// file-list advertisement is pushed whole every time, the same bytes
// again included, and raises its event at the resident each time; a
// published group advertisement names no group to push to and is pushed
// to no one.
func TestPublishedEventAdvertisementsPushedWhole(t *testing.T) {
	s := newPushSite(t, 2)
	alice, got := s.login(0)
	bob, _ := s.login(1)
	waitUntil(t, func() bool { return pipeAt(alice, bob) != nil })
	advs := []struct {
		adv   advert.Advertisement
		event events.Type
	}{
		{&advert.Presence{PeerID: bob.PeerID(), Name: "user1", Group: "math", Status: advert.StatusOnline, Seen: time.Unix(1_700_000_000, 0).UTC()}, events.PresenceUpdate},
		{&advert.FileList{PeerID: bob.PeerID(), Group: "math", Files: []advert.FileEntry{{Name: "notes.txt", Size: 3}}}, events.FileIndexUpdated},
	}
	for _, a := range advs {
		for round := 0; round < 2; round++ {
			mark, raised := s.tap.mark(), len(got.OfType(a.event))
			publish(t, bob, a.adv)
			waitUntil(t, func() bool { return len(got.OfType(a.event)) == raised+1 })
			if ops := s.tap.ops(alice.PeerID(), mark); len(ops) != 1 || ops[0] != proto.OpAdvPush {
				t.Fatalf("%s publish %d reached alice as %v, want one advPush", a.adv.AdvType(), round, ops)
			}
		}
	}

	mark, updated := s.tap.mark(), len(got.OfType(events.GroupUpdated))
	publish(t, bob, &advert.Group{GroupID: "urn:jxta:group-physics", Name: "physics", Creator: bob.PeerID()})
	time.Sleep(50 * time.Millisecond)
	if ops := s.tap.ops(alice.PeerID(), mark); len(ops) != 0 {
		t.Fatalf("a group advertisement reached alice as %v", ops)
	}
	if n := len(got.OfType(events.GroupUpdated)) - updated; n != 0 {
		t.Fatalf("a group advertisement raised %d GroupUpdated events at alice", n)
	}
}

// TestPushBurstSharesOneFrame: each push to a group's residents — a
// presence notice, a pipe advertisement pushed whole and its refresh —
// is one buffer sent to every resident, and that buffer is byte for byte
// what was sent once every resident's handler has run.
func TestPushBurstSharesOneFrame(t *testing.T) {
	const residents = 6
	s := newPushSite(t, residents+1)
	var members []*client.Client
	for i := 0; i < residents; i++ {
		cl, _ := s.login(i)
		members = append(members, cl)
	}
	mark := s.tap.mark()
	joiner, _ := s.login(residents)
	everyone := func(cond func(*client.Client) bool) func() bool {
		return func() bool {
			for _, m := range members {
				if !cond(m) {
					return false
				}
			}
			return true
		}
	}
	waitUntil(t, everyone(func(m *client.Client) bool { return pipeAt(m, joiner) != nil }))
	first := pipeAt(members[0], joiner)
	time.Sleep(2 * time.Millisecond)
	publish(t, joiner, first.adv)
	waitUntil(t, everyone(func(m *client.Client) bool {
		r := pipeAt(m, joiner)
		return r != nil && r.received.After(first.received)
	}))

	s.tap.mu.Lock()
	defer s.tap.mu.Unlock()
	bursts := map[*byte][]tappedPush{}
	for _, p := range s.tap.pushes[mark:] {
		bursts[&p.frame[0]] = append(bursts[&p.frame[0]], p)
	}
	seen := map[string]bool{}
	for _, burst := range bursts {
		op := burst[0].op
		if len(burst) != residents {
			t.Errorf("a %s push went to %d residents in one buffer, want %d", op, len(burst), residents)
		}
		for _, p := range burst {
			if !bytes.Equal(p.frame, p.snapshot) {
				t.Errorf("the %s push to %s was written to by a handler", op, p.to)
			}
		}
		seen[op] = true
	}
	for _, op := range []string{proto.OpPresencePush, proto.OpAdvPush, proto.OpAdvRefresh} {
		if !seen[op] {
			t.Errorf("no %s burst among %v", op, seen)
		}
	}
}
