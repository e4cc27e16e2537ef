package endpoint

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/simnet"
)

func TestMessageAccessors(t *testing.T) {
	m := NewMessage()
	m.Add("bin", []byte{1, 2})
	m.AddString("txt", "hello")
	m.Add("doc", []byte("<A></A>"))

	if b, ok := m.Get("bin"); !ok || !bytes.Equal(b, []byte{1, 2}) {
		t.Fatalf("Get(bin) = %v, %v", b, ok)
	}
	if s, ok := m.GetString("txt"); !ok || s != "hello" {
		t.Fatalf("GetString(txt) = %q, %v", s, ok)
	}
	if !m.Has("doc") || m.Has("nope") {
		t.Fatal("Has misbehaved")
	}
}

// TestParsedFrameIsViewsAndOneAllocation pins the receive half of the
// per-byte path: the prefix's fields and the element data are the
// frame's own memory, and a frame whose names are all in the vocabulary
// costs the Message with its elements behind it, nothing per element.
func TestParsedFrameIsViewsAndOneAllocation(t *testing.T) {
	frame := NewFrame(Route{Src: "urn:jxta:a", Service: "jxta:pipe:", Param: "p", Corr: CorrRequest, CorrID: []byte("00aa")},
		Element{"sec:env", bytes.Repeat([]byte{7}, 4096)}, Element{"group", []byte("g")})
	f, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if string(f.Src) != "urn:jxta:a" || string(f.Service) != "jxta:pipe:p" || f.Corr != CorrRequest || string(f.CorrID) != "00aa" {
		t.Fatalf("prefix read back as %q %q %d %q", f.Src, f.Service, f.Corr, f.CorrID)
	}
	for _, v := range [][]byte{f.Src, f.Service, f.CorrID} {
		if !within(v, frame) {
			t.Errorf("prefix field %q was copied out of the frame", v)
		}
	}
	for _, e := range f.Msg.Elements {
		if !within(e.Data, frame) {
			t.Errorf("element %q was copied out of the frame", e.Name)
		}
	}
	if env, _ := f.Msg.Get("sec:env"); cap(env) != len(env) {
		t.Error("a view's capacity reaches past its element: an append would overwrite the next one")
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = ParseFrame(frame) }); n != 1 {
		t.Errorf("ParseFrame allocates %.0f times per frame, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = NewFrame(Route{Src: "urn:jxta:a", Service: "s"}, f.Msg.Elements...) }); n != 1 {
		t.Errorf("NewFrame allocates %.0f times per frame, want 1: the frame", n)
	}
}

func TestMessageWireRoundTrip(t *testing.T) {
	m := NewMessage()
	m.AddString("a", "alpha")
	m.Add("b", nil)
	m.Add("a", []byte("<dup/>")) // duplicate names allowed
	back, err := ParseMessage(m.Marshal())
	if err != nil {
		t.Fatalf("ParseMessage: %v", err)
	}
	if len(back.Elements) != 3 {
		t.Fatalf("elements = %d", len(back.Elements))
	}
	for i := range m.Elements {
		if m.Elements[i].Name != back.Elements[i].Name ||
			!bytes.Equal(m.Elements[i].Data, back.Elements[i].Data) {
			t.Fatalf("element %d mismatch", i)
		}
	}
}

func TestParseMessageErrors(t *testing.T) {
	good := NewMessage().Add("k", []byte("v")).Marshal()
	cases := map[string][]byte{
		"empty":      nil,
		"bad magic":  []byte("XXXX\x00\x00"),
		"truncated":  good[:len(good)-1],
		"trailing":   append(append([]byte{}, good...), 0),
		"name cut":   good[:7],
		"high count": {'J', 'X', 'M', '2', 0xFF, 0xFF},
	}
	for name, data := range cases {
		if _, err := ParseMessage(data); err == nil {
			t.Errorf("ParseMessage(%s) succeeded, want error", name)
		}
	}
}

func TestParseFrameErrors(t *testing.T) {
	good := NewFrame(Route{Src: "a", Service: "s"}, Element{"k", []byte("v")})
	cases := map[string][]byte{
		"empty":         nil,
		"element codec": NewMessage().Add("k", []byte("v")).Marshal(),
		"relay frame":   relayFrame("b", good),
		"truncated":     good[:len(good)-1],
		"trailing":      append(bytes.Clone(good), 0),
		"src cut":       good[:6],
		"no corr":       good[:4+3+3],
		"unknown corr":  append(append(bytes.Clone(good[:10]), 3), good[11:]...),
		"id cut":        good[:4+3+3+2],
		"no count":      good[:4+3+3+3],
		"high count":    append(bytes.Clone(good[:13]), 0xFF, 0xFF),
	}
	for name, data := range cases {
		if _, err := ParseFrame(data); err == nil {
			t.Errorf("ParseFrame(%s) succeeded, want error", name)
		}
	}
}

// TestBuildFrameRefusesWhatParseFrameRefuses: whatever its recipient's
// parser would drop as malformed, the builder refuses — ErrFrameTooLarge
// for a size, before it allocates anything — where the frame once went
// out with its lengths wrapped; and a frame at every limit parses.
func TestBuildFrameRefusesWhatParseFrameRefuses(t *testing.T) {
	long := strings.Repeat("n", maxField+1)
	fill := func(dst []byte) ([]byte, error) {
		t.Fatal("a refused frame's room was filled")
		return dst, nil
	}
	cases := []struct {
		name  string
		r     Route
		room  *Room
		elems []Element
		want  error
	}{
		{"data over 64 MiB", Route{}, &Room{Size: maxElemData + 1, Fill: fill}, []Element{{Name: "sec:env"}}, ErrFrameTooLarge},
		{"too many elements", Route{}, nil, make([]Element, maxElements+1), ErrFrameTooLarge},
		{"name too long", Route{}, nil, []Element{{Name: long}}, ErrFrameTooLarge},
		{"source too long", Route{Src: keys.PeerID(long)}, nil, nil, ErrFrameTooLarge},
		{"service and param too long", Route{Service: long[:maxField], Param: "p"}, nil, nil, ErrFrameTooLarge},
		{"correlation ID too long", Route{CorrID: []byte(long)}, nil, nil, ErrFrameTooLarge},
		{"unknown corr", Route{Corr: CorrResponse + 1}, nil, nil, ErrWire},
		{"room past the elements", Route{}, &Room{Index: 1, Fill: fill}, []Element{{Name: "a"}}, nil},
	}
	for _, tc := range cases {
		frame, err := BuildFrame(tc.r, tc.room, tc.elems...)
		if err == nil || tc.want != nil && !errors.Is(err, tc.want) || frame != nil {
			t.Errorf("%s: (%d bytes, %v), want %v", tc.name, len(frame), err, tc.want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { _, _ = BuildFrame(Route{}, cases[0].room, cases[0].elems...) }); n != 0 {
		t.Errorf("refusing a 64 MiB room allocated %.0f times, want none", n)
	}

	// A room filled with a byte more or less than it said, or not at all.
	for _, fill := range []func([]byte) ([]byte, error){
		func(dst []byte) ([]byte, error) { return append(dst, "ab"...), nil },
		func(dst []byte) ([]byte, error) { return append(dst, "abcd"...), nil },
		func(dst []byte) ([]byte, error) { return nil, errors.New("sealing failed") },
	} {
		if frame, err := BuildFrame(Route{}, &Room{Size: 3, Fill: fill}, Element{Name: "a"}); err == nil || frame != nil {
			t.Errorf("a room of 3 bytes misfilled built (%x, %v)", frame, err)
		}
	}

	at := strings.Repeat("m", maxField)
	frame, err := BuildFrame(Route{Src: keys.PeerID(at), Service: at[1:], Param: "p", Corr: CorrResponse, CorrID: []byte(at)},
		&Room{Index: 1, Size: 3, Fill: func(dst []byte) ([]byte, error) { return append(dst, "abc"...), nil }},
		append(make([]Element, maxElements-1), Element{Name: at})...)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ParseFrame(frame)
	if err != nil || len(f.Msg.Elements) != maxElements || string(f.Msg.Elements[1].Data) != "abc" || len(f.Msg.Elements[maxElements-1].Name) != maxField {
		t.Fatalf("a frame at every limit parsed to (%d elements, %v)", len(f.Msg.Elements), err)
	}
}

func TestPropertyMessageWire(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			m := NewMessage()
			for i := 0; i < r.Intn(6); i++ {
				name := make([]byte, r.Intn(10))
				r.Read(name)
				data := make([]byte, r.Intn(100))
				r.Read(data)
				m.Add(string(name), data)
			}
			vals[0] = reflect.ValueOf(m)
		},
	}
	prop := func(m *Message) bool {
		back, err := ParseMessage(m.Marshal())
		if err != nil || len(back.Elements) != len(m.Elements) {
			return false
		}
		for i := range m.Elements {
			if m.Elements[i].Name != back.Elements[i].Name ||
				!bytes.Equal(m.Elements[i].Data, back.Elements[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// --- Service tests ---

func pair(t *testing.T) (*simnet.Network, *Service, *Service) {
	t.Helper()
	n := simnet.NewNetwork(simnet.ProfileLocal)
	t.Cleanup(n.Close)
	a, err := NewService(n, "urn:jxta:test-a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewService(n, "urn:jxta:test-b")
	if err != nil {
		t.Fatal(err)
	}
	return n, a, b
}

func TestSendToHandler(t *testing.T) {
	_, a, b := pair(t)
	got := make(chan string, 1)
	b.RegisterHandler("chat", func(from keys.PeerID, m *Message) *Message {
		s, _ := m.GetString("body")
		got <- string(from) + "/" + s
		return nil
	})
	if err := a.Send(b.PeerID(), "chat", NewMessage().AddString("body", "hi")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case v := <-got:
		if v != "urn:jxta:test-a/hi" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
}

// TestKeptMessageFindsEmptyTable: a delivered message's element table is
// lent to its handler for the call. A handler that keeps msg, or its
// Elements, past its return finds them empty once the delivery has
// returned, whether the frame's elements fit the pooled table or not; a
// Request's caller, which keeps its response, gets a table of its own.
func TestKeptMessageFindsEmptyTable(t *testing.T) {
	for _, n := range []int{2, 12} {
		t.Run(fmt.Sprint(n, "-elements"), func(t *testing.T) {
			net, a, b := pair(t)
			var kept *Message
			var keptElems []Element
			b.RegisterHandler("keep", func(_ keys.PeerID, m *Message) *Message {
				for i, e := range m.Elements {
					if e.Name != fmt.Sprint("k", i) || string(e.Data) != fmt.Sprint("v", i) {
						t.Errorf("element %d is %q=%q", i, e.Name, e.Data)
					}
				}
				kept, keptElems = m, m.Elements
				return NewMessage().AddString("kept", fmt.Sprint(len(m.Elements)))
			})
			msg := NewMessage()
			for i := range n {
				msg.AddString(fmt.Sprint("k", i), fmt.Sprint("v", i))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			resp, err := a.Request(ctx, b.PeerID(), "keep", msg, 0)
			if err != nil {
				t.Fatal(err)
			}
			net.Close() // every delivery has returned, and given its table back
			if len(keptElems) != n {
				t.Fatalf("the handler was handed %d elements of %d", len(keptElems), n)
			}
			if len(kept.Elements) != 0 {
				t.Fatalf("a kept message still shows %d elements after its handler returned", len(kept.Elements))
			}
			for i, e := range keptElems {
				if e.Name != "" || e.Data != nil {
					t.Fatalf("kept element %d still reads %q=%q", i, e.Name, e.Data)
				}
			}
			if got, _ := resp.GetString("kept"); got != fmt.Sprint(n) {
				t.Fatalf("the response the caller keeps reads %q", got)
			}
		})
	}
}

func TestRequestResponse(t *testing.T) {
	_, a, b := pair(t)
	b.RegisterHandler("echo", func(from keys.PeerID, m *Message) *Message {
		body, _ := m.Get("body")
		return NewMessage().Add("body", append([]byte("re:"), body...))
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := a.Request(ctx, b.PeerID(), "echo", NewMessage().AddString("body", "ping"), 0)
	if err != nil {
		t.Fatalf("Request: %v", err)
	}
	if body, _ := resp.GetString("body"); body != "re:ping" {
		t.Fatalf("body = %q", body)
	}
}

// TestResponseSentTwiceIsIdentical: a handler's response is only read by
// the endpoint, so one the broker's idempotency cache hands out twice
// goes out byte-identical both times (but for the request it answers) and
// is the same Message afterwards; nor is the caller's request written to.
func TestResponseSentTwiceIsIdentical(t *testing.T) {
	n, a, b := pair(t)
	var mu sync.Mutex
	var responses [][]byte
	n.AddTap(func(p simnet.Packet) {
		if f, err := ParseFrame(p.Payload); err == nil && string(f.Service) == svcResponse {
			mu.Lock()
			responses = append(responses, bytes.Clone(p.Payload))
			mu.Unlock()
		}
	})
	shared := NewMessage().AddString("body", "same").AddString("ok", "1")
	before := NewMessage()
	for _, e := range shared.Elements {
		before.Add(e.Name, bytes.Clone(e.Data))
	}
	capBefore := cap(shared.Elements)
	b.RegisterHandler("echo", func(keys.PeerID, *Message) *Message { return shared })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req := NewMessage().AddString("body", "ping")
	for i := 0; i < 2; i++ {
		resp, err := a.Request(ctx, b.PeerID(), "echo", req, 0)
		if err != nil {
			t.Fatalf("Request: %v", err)
		}
		if !reflect.DeepEqual(resp.Elements, before.Elements) {
			t.Fatalf("response %d = %+v, want %+v", i, resp.Elements, before.Elements)
		}
	}
	if !reflect.DeepEqual(shared.Elements, before.Elements) || cap(shared.Elements) != capBefore {
		t.Fatalf("the endpoint wrote to the response it sent: %+v", shared.Elements)
	}
	if len(req.Elements) != 1 {
		t.Fatalf("the endpoint wrote to its caller's request: %+v", req)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(responses) != 2 {
		t.Fatalf("%d response frames on the wire, want 2", len(responses))
	}
	section := elementsLen(shared.Elements)
	for i, frame := range responses {
		f, _ := ParseFrame(frame)
		want := NewFrame(Route{Src: b.PeerID(), Service: svcResponse, Corr: CorrResponse, CorrID: f.CorrID}, before.Elements...)
		if !bytes.Equal(frame, want) {
			t.Fatalf("response frame %d is not the frame of the unchanged response:\n got %x\nwant %x", i, frame, want)
		}
	}
	if !bytes.Equal(responses[0][len(responses[0])-section:], responses[1][len(responses[1])-section:]) {
		t.Fatal("the two responses' element sections differ")
	}
}

func TestRequestTimeout(t *testing.T) {
	_, a, b := pair(t)
	// No handler registered on b: message is dropped, request must time out.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := a.Request(ctx, b.PeerID(), "void", NewMessage(), 0)
	if err == nil {
		t.Fatal("Request succeeded with no handler")
	}
}

func TestConcurrentRequests(t *testing.T) {
	_, a, b := pair(t)
	b.RegisterHandler("id", func(from keys.PeerID, m *Message) *Message {
		v, _ := m.Get("v")
		return NewMessage().Add("v", v)
	})
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i byte) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			resp, err := a.Request(ctx, b.PeerID(), "id", NewMessage().Add("v", []byte{i}), 0)
			if err != nil {
				t.Errorf("Request %d: %v", i, err)
				return
			}
			if v, _ := resp.Get("v"); len(v) != 1 || v[0] != i {
				t.Errorf("response %d carried %v", i, v)
			}
		}(byte(i))
	}
	wg.Wait()
}

func TestRelayThroughBroker(t *testing.T) {
	n := simnet.NewNetwork(simnet.ProfileLocal)
	defer n.Close()
	cl1, err := NewService(n, "urn:jxta:cl1")
	if err != nil {
		t.Fatal(err)
	}
	cl2, err := NewService(n, "urn:jxta:cl2")
	if err != nil {
		t.Fatal(err)
	}
	br, err := NewService(n, "urn:jxta:br")
	if err != nil {
		t.Fatal(err)
	}
	br.EnableRelaying(true)
	cl1.SetRelay(br.PeerID())

	// cl1 is NATed: it cannot open a direct path to cl2.
	n.SetReachable(simnet.NodeID(cl1.PeerID()), simnet.NodeID(cl2.PeerID()), false)

	got := make(chan keys.PeerID, 1)
	cl2.RegisterHandler("chat", func(from keys.PeerID, m *Message) *Message {
		got <- from
		return nil
	})
	if err := cl1.Send(cl2.PeerID(), "chat", NewMessage().AddString("body", "via relay")); err != nil {
		t.Fatalf("Send via relay: %v", err)
	}
	select {
	case from := <-got:
		// The original source must be preserved through the relay.
		if from != cl1.PeerID() {
			t.Fatalf("source after relay = %q", from)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for relayed message")
	}
}

func TestRelayRequiresEnabledForwarder(t *testing.T) {
	n := simnet.NewNetwork(simnet.ProfileLocal)
	defer n.Close()
	cl1, _ := NewService(n, "urn:jxta:c1")
	cl2, _ := NewService(n, "urn:jxta:c2")
	lazy, _ := NewService(n, "urn:jxta:lazy") // relaying NOT enabled
	cl1.SetRelay(lazy.PeerID())
	n.SetReachable(simnet.NodeID(cl1.PeerID()), simnet.NodeID(cl2.PeerID()), false)

	delivered := make(chan struct{}, 1)
	cl2.RegisterHandler("chat", func(keys.PeerID, *Message) *Message {
		delivered <- struct{}{}
		return nil
	})
	if err := cl1.Send(cl2.PeerID(), "chat", NewMessage()); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case <-delivered:
		t.Fatal("non-relaying node forwarded a frame")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestNoRelayConfigured(t *testing.T) {
	n := simnet.NewNetwork(simnet.ProfileLocal)
	defer n.Close()
	cl1, _ := NewService(n, "urn:jxta:c1")
	cl2, _ := NewService(n, "urn:jxta:c2")
	n.SetReachable(simnet.NodeID(cl1.PeerID()), simnet.NodeID(cl2.PeerID()), false)
	if err := cl1.Send(cl2.PeerID(), "chat", NewMessage()); err == nil {
		t.Fatal("Send succeeded with no relay configured")
	}
}

func TestCounters(t *testing.T) {
	_, a, b := pair(t)
	done := make(chan struct{}, 1)
	b.RegisterHandler("x", func(keys.PeerID, *Message) *Message {
		done <- struct{}{}
		return nil
	})
	if err := a.Send(b.PeerID(), "x", NewMessage().AddString("k", "v")); err != nil {
		t.Fatal(err)
	}
	<-done
	tx, _, txB, _ := a.Counters()
	if tx != 1 || txB == 0 {
		t.Fatalf("a counters tx=%d txB=%d", tx, txB)
	}
	_, rx, _, rxB := b.Counters()
	if rx != 1 || rxB == 0 {
		t.Fatalf("b counters rx=%d rxB=%d", rx, rxB)
	}
}

// TestSendEach: one frame reaches every peer, through the relay for a
// peer behind NAT; each send is counted, a peer that is not attached
// fails only its own send, and a closed service sends nothing.
func TestSendEach(t *testing.T) {
	n := simnet.NewNetwork(simnet.ProfileLocal)
	defer n.Close()
	br, err := NewService(n, "urn:jxta:br")
	if err != nil {
		t.Fatal(err)
	}
	relay, err := NewService(n, "urn:jxta:relay")
	if err != nil {
		t.Fatal(err)
	}
	relay.EnableRelaying(true)
	br.SetRelay(relay.PeerID())
	var got sync.WaitGroup
	var to []keys.PeerID
	for i := 0; i < 3; i++ {
		m, err := NewService(n, keys.PeerID(fmt.Sprintf("urn:jxta:member-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		got.Add(1)
		m.RegisterHandler("push", func(from keys.PeerID, msg *Message) *Message {
			if body, _ := msg.GetString("body"); from == br.PeerID() && body == "to all" {
				got.Done()
			}
			return nil
		})
		to = append(to, m.PeerID())
	}
	n.SetReachable(simnet.NodeID(br.PeerID()), simnet.NodeID(to[1]), false)
	if err := br.SendEach(append(to, "urn:jxta:gone"), "push", NewMessage().AddString("body", "to all")); !errors.Is(err, simnet.ErrNotAttached) {
		t.Fatalf("SendEach with a peer not attached: %v", err)
	}
	got.Wait()
	if tx, _, _, _ := br.Counters(); tx != 3 {
		t.Fatalf("%d sends counted, want 3", tx)
	}
	br.Close()
	if err := br.SendEach(to, "push", NewMessage()); !errors.Is(err, ErrClosed) {
		t.Fatalf("SendEach after Close: %v", err)
	}
}

func TestCloseStopsService(t *testing.T) {
	_, a, b := pair(t)
	a.Close()
	if err := a.Send(b.PeerID(), "x", NewMessage()); err == nil {
		t.Fatal("Send after Close succeeded")
	}
	ctx := context.Background()
	if _, err := a.Request(ctx, b.PeerID(), "x", NewMessage(), 0); err == nil {
		t.Fatal("Request after Close succeeded")
	}
	a.Close() // idempotent
}

func TestUnregisterHandler(t *testing.T) {
	_, a, b := pair(t)
	hits := make(chan struct{}, 2)
	b.RegisterHandler("x", func(keys.PeerID, *Message) *Message {
		hits <- struct{}{}
		return nil
	})
	a.Send(b.PeerID(), "x", NewMessage())
	select {
	case <-hits:
	case <-time.After(5 * time.Second):
		t.Fatal("first send not delivered")
	}
	b.UnregisterHandler("x")
	a.Send(b.PeerID(), "x", NewMessage())
	select {
	case <-hits:
		t.Fatal("handler fired after unregister")
	case <-time.After(100 * time.Millisecond):
	}
}

// TestNodeClock: a node's time is the wall until its clock is set, and
// each node's own after; setting it while the node's goroutines read it is
// safe (run under -race).
func TestNodeClock(t *testing.T) {
	_, a, b := pair(t)
	if d := time.Since(a.Now()).Abs(); d > time.Minute {
		t.Fatalf("an unset clock is %v off the wall", d)
	}
	then := time.Date(2009, 9, 22, 0, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				a.Now()
			}
		}()
	}
	for j := 0; j < 100; j++ {
		a.SetClock(func() time.Time { return then })
	}
	wg.Wait()
	if got := a.Now(); !got.Equal(then) {
		t.Fatalf("a.Now() = %v after SetClock, want %v", got, then)
	}
	if d := time.Since(b.Now()).Abs(); d > time.Minute {
		t.Fatalf("setting one node's clock moved another's by %v", d)
	}
}

// TestPeerNamesIntern: an interned source ID is the ID its bytes spell,
// however many IDs share the table's slots, and one seen before costs no
// string.
func TestPeerNamesIntern(t *testing.T) {
	names := peerNames{seed: maphash.MakeSeed()}
	for round := 0; round < 2; round++ {
		for i := 0; i < 300; i++ {
			src := []byte(fmt.Sprintf("urn:jxta:cbid-%04d", i))
			if got := names.intern(src); string(got) != string(src) {
				t.Fatalf("intern(%q) = %q", src, got)
			}
		}
	}
	src := []byte("urn:jxta:cbid-again")
	names.intern(src)
	if n := testing.AllocsPerRun(100, func() { names.intern(src) }); n != 0 {
		t.Fatalf("interning a seen ID allocates %.0f times, want 0", n)
	}
}
