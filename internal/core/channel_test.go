package core_test

// The life of a session channel between two clients: the handshake rides
// the first envelope and costs the responder no RSA operation, every later
// message is a frame that costs neither end one, and whatever loses the
// channel at either end — a logout, a restart, a lost accept — costs one
// envelope and no message.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/telemetry"
	"jxtaoverlay/internal/waituntil"
)

// delivered returns the SecureMessage events carrying text.
func delivered(c *events.Collector, text string) []events.Event {
	var out []events.Event
	for _, e := range c.OfType(events.SecureMessage) {
		if string(e.Data) == text {
			out = append(out, e)
		}
	}
	return out
}

// sendAndWait sends text and waits for it to be raised, authenticated.
func sendAndWait(t *testing.T, from *core.SecureClient, to *core.SecureClient, got *events.Collector, text string) events.Event {
	t.Helper()
	if err := from.SecureMsgPeer(testCtx(t), to.PeerID(), "math", text); err != nil {
		t.Fatalf("send %q: %v", text, err)
	}
	if !secureDelivered(got, text) {
		t.Fatalf("%q sent without error and never delivered", text)
	}
	return delivered(got, text)[0]
}

// channelUp sends one message and waits until the accept has come back.
func channelUp(t *testing.T, from, to *core.SecureClient, got *events.Collector) {
	t.Helper()
	if e := sendAndWait(t, from, to, got, "hello"); e.Attr("mode") != core.ModeFull.String() {
		t.Fatalf("first message to a peer travelled as %q, want the paper's envelope", e.Attr("mode"))
	}
	waituntil.Must(t, 5*time.Second, func() bool { return core.ChannelTo(from, to.PeerID(), "math") },
		"the accept never reached the initiator")
}

// exactlyOnce fails if any of texts was raised more or less than once.
func exactlyOnce(t *testing.T, got *events.Collector, texts []string) {
	t.Helper()
	for _, text := range texts {
		waituntil.Must(t, 5*time.Second, func() bool { return len(delivered(got, text)) >= 1 }, "%q never delivered", text)
	}
	time.Sleep(50 * time.Millisecond) // a duplicate would be in flight no longer than this
	for _, text := range texts {
		if n := len(delivered(got, text)); n != 1 {
			t.Errorf("%q delivered %d times, want once", text, n)
		}
	}
	if alerts := got.OfType(events.SecurityAlert); len(alerts) != 0 {
		t.Errorf("%d security alerts, first: %v", len(alerts), alerts[0].Payload)
	}
}

func metric(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	v, ok := reg.Get(name)
	if !ok {
		t.Fatalf("metric %s not registered", name)
	}
	return v
}

// TestChannelSteadyStateNoRSA: 200 one-way messages sign once at the
// sender, and that is all the RSA private-key work there is — the first
// envelope's wrap is to the recipient's certified agreement key, and the
// recipient's accept is signed by nobody and verified by nobody,
// so bringing the channel up costs the recipient no signature and the
// sender no second look at the recipient's advertisement. On the
// established channel no message touches an advertisement or a credential
// at either end, and each is raised authenticated under the initiator's
// credentialed name.
func TestChannelSteadyStateNoRSA(t *testing.T) {
	h := newSecureHarness(t, true)
	alice := h.secureClient("alice")
	bob := h.secureClient("bob", core.WithReplayGuard(core.NewReplayGuard(time.Minute, 1024)))
	h.join(alice, "pw-alice")
	h.join(bob, "pw-bob")
	got := events.NewCollector(bob.Bus())
	aliceKP, bobKP := alice.Identity().Keys, bob.Identity().Keys
	signedA, signedB := aliceKP.SignCalls(), bobKP.SignCalls()
	verdicts := func(s *core.SecureClient) uint64 { h, m := s.VerifyCache().Stats(); return h + m }
	chains := func(s *core.SecureClient) uint64 {
		h, m := s.VerifyCache().TrustStore().ChainCacheStats()
		return h + m
	}
	verdictsA := verdicts(alice)

	channelUp(t, alice, bob, got)
	if a, b := aliceKP.SignCalls()-signedA, bobKP.SignCalls()-signedB; a != 1 || b != 0 {
		t.Fatalf("handshake: alice signed %d times and bob %d, want 1 (the envelope) and 0", a, b)
	}
	// alice verified bob's advertisement once, to seal the envelope; the
	// accept sent her to no sender lookup and no signature check.
	if n := verdicts(alice) - verdictsA; n != 1 {
		t.Fatalf("handshake: alice consulted her advertisement verdicts %d times, want 1", n)
	}

	verdictsA, verdictsB, chainsA, chainsB := verdicts(alice), verdicts(bob), chains(alice), chains(bob)
	for i := 1; i < 200; i++ {
		e := sendAndWait(t, alice, bob, got, fmt.Sprintf("message %d", i))
		if e.Attr("mode") != core.ModeChannel.String() || e.Attr("user") != "alice" || e.From != alice.PeerID() {
			t.Fatalf("message %d raised as %+v, want mode %q from alice", i, e, core.ModeChannel)
		}
	}
	if a, b := aliceKP.SignCalls()-signedA, bobKP.SignCalls()-signedB; a != 1 || b != 0 {
		t.Errorf("200 messages: alice signed %d times and bob %d, want 1 and 0", a, b)
	}
	if verdicts(alice) != verdictsA || verdicts(bob) != verdictsB || chains(alice) != chainsA || chains(bob) != chainsB {
		t.Errorf("199 frames consulted the advertisement verdict cache %d+%d times and the chain cache %d+%d times, want none",
			verdicts(alice)-verdictsA, verdicts(bob)-verdictsB, chains(alice)-chainsA, chains(bob)-chainsB)
	}
	if alerts := got.OfType(events.SecurityAlert); len(alerts) != 0 {
		t.Errorf("%d security alerts, first: %v", len(alerts), alerts[0].Payload)
	}
}

// TestChannelModeFullOffersNothing: an explicit WithMode(ModeFull) is the
// paper's stateless primitive on every message — no offer, no channel —
// while the same client still answers a peer's offer and opens its frames.
func TestChannelModeFullOffersNothing(t *testing.T) {
	h := newSecureHarness(t, true)
	alice := h.secureClient("alice", core.WithMode(core.ModeFull))
	bob := h.secureClient("bob")
	h.join(alice, "pw-alice")
	h.join(bob, "pw-bob")
	atBob, atAlice := events.NewCollector(bob.Bus()), events.NewCollector(alice.Bus())
	signed := alice.Identity().Keys.SignCalls()
	for i := 0; i < 5; i++ {
		if e := sendAndWait(t, alice, bob, atBob, fmt.Sprintf("stateless %d", i)); e.Attr("mode") != core.ModeFull.String() || e.Attr("authenticated") != "true" {
			t.Fatalf("message %d travelled as %q (authenticated %q)", i, e.Attr("mode"), e.Attr("authenticated"))
		}
	}
	if got := alice.Identity().Keys.SignCalls() - signed; got != 5 {
		t.Fatalf("alice signed %d times for 5 messages, want 5", got)
	}
	if core.ChannelTo(alice, bob.PeerID(), "math") || core.InboundChannels(bob) != 0 {
		t.Fatal("a ModeFull sender was answered with an accept, or ended up with a channel")
	}
	channelUp(t, bob, alice, atAlice)
	if e := sendAndWait(t, bob, alice, atAlice, "on bob's channel"); e.Attr("mode") != core.ModeChannel.String() {
		t.Fatalf("bob's second message travelled as %q", e.Attr("mode"))
	}
}

// TestChannelRecipientLogoutAndRestart: a recipient that logs out and
// joins again, or whose process is replaced by a new one on the same
// identity, holds no channel any more. The first frame sent to it is
// refused, and its message arrives — once — as an envelope that brings
// the next channel up.
func TestChannelRecipientLogoutAndRestart(t *testing.T) {
	h := newSecureHarness(t, true)
	reg := telemetry.New()
	alice := h.secureClient("alice")
	alice.BindTelemetry(reg)
	h.join(alice, "pw-alice")

	pse := membership.NewPSE("", 0)
	newBob := func() *core.SecureClient {
		cl, err := client.New(h.net, pse, "bob")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		trust, err := h.dep.TrustStore()
		if err != nil {
			t.Fatal(err)
		}
		sc, err := core.NewSecureClient(cl, trust)
		if err != nil {
			t.Fatal(err)
		}
		sc.BindTelemetry(reg)
		h.join(sc, "pw-bob")
		return sc
	}
	bob := newBob()
	got := events.NewCollector(bob.Bus())
	channelUp(t, alice, bob, got)
	sendAndWait(t, alice, bob, got, "on the channel")

	if err := bob.Logout(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	h.join(bob, "pw-bob")
	if e := sendAndWait(t, alice, bob, got, "after the logout"); e.Attr("mode") != core.ModeFull.String() {
		t.Fatalf("message to a peer that dropped the channel raised as %q", e.Attr("mode"))
	}
	waituntil.Must(t, 5*time.Second, func() bool { return core.ChannelTo(alice, bob.PeerID(), "math") }, "no channel after the fallback")
	if e := sendAndWait(t, alice, bob, got, "on the second channel"); e.Attr("mode") != core.ModeChannel.String() {
		t.Fatalf("message after the fallback raised as %q", e.Attr("mode"))
	}
	exactlyOnce(t, got, []string{"on the channel", "after the logout", "on the second channel"})

	bob.Close()
	bob = newBob() // a new process: same identity, nothing else
	got = events.NewCollector(bob.Bus())
	if e := sendAndWait(t, alice, bob, got, "after the restart"); e.Attr("mode") != core.ModeFull.String() {
		t.Fatalf("message to a restarted peer raised as %q", e.Attr("mode"))
	}
	exactlyOnce(t, got, []string{"after the restart"})

	if f, r := metric(t, reg, core.ChannelFallbacksMetric), metric(t, reg, core.ChannelRefusalsSentMetric); f != 2 || r != 2 {
		t.Errorf("fallbacks %v, refusals sent %v; want 2 and 2", f, r)
	}
}

// TestChannelConcurrentHandshake: eight goroutines sending to one peer
// while no channel is up all carry the same offer; every message is
// delivered once and one channel results. Eight more then share it.
func TestChannelConcurrentHandshake(t *testing.T) {
	h := newSecureHarness(t, true)
	reg := telemetry.New()
	alice := h.secureClient("alice")
	bob := h.secureClient("bob", core.WithReplayGuard(core.NewReplayGuard(time.Minute, 1024)))
	alice.BindTelemetry(reg)
	bob.BindTelemetry(reg)
	h.join(alice, "pw-alice")
	h.join(bob, "pw-bob")
	got := events.NewCollector(bob.Bus())
	burst := func(prefix string) []string {
		texts := make([]string, 8)
		var wg sync.WaitGroup
		for i := range texts {
			texts[i] = fmt.Sprintf("%s %d", prefix, i)
			wg.Add(1)
			go func(text string) {
				defer wg.Done()
				if err := alice.SecureMsgPeer(testCtx(t), bob.PeerID(), "math", text); err != nil {
					t.Errorf("send %q: %v", text, err)
				}
			}(texts[i])
		}
		wg.Wait()
		return texts
	}
	exactlyOnce(t, got, burst("during the handshake"))
	waituntil.Must(t, 5*time.Second, func() bool { return core.ChannelTo(alice, bob.PeerID(), "math") }, "no channel")
	signed := alice.Identity().Keys.SignCalls()
	exactlyOnce(t, got, burst("on the channel"))
	if n := alice.Identity().Keys.SignCalls() - signed; n != 0 {
		t.Errorf("alice signed %d times for 8 concurrent frames", n)
	}
	if est, open := metric(t, reg, core.ChannelEstablishedMetric), metric(t, reg, core.ChannelsOpenMetric); est != 2 || open != 2 {
		t.Errorf("established %v, open %v; want 2 and 2 (one channel, counted at each end)", est, open)
	}
}

// TestChannelAcceptLost: the accept — 65 bytes, no XML — is lost on a
// lossy link. Traffic goes on as envelopes, each repeating the offer; the
// responder answers the repeated offer with the accept it made the first
// time, no sooner than a second later, and the channel comes up on it.
// The responder signs nothing throughout.
func TestChannelAcceptLost(t *testing.T) {
	h := newSecureHarness(t, true)
	alice := h.secureClient("alice")
	bob := h.secureClient("bob")
	h.join(alice, "pw-alice")
	h.join(bob, "pw-bob")
	got := events.NewCollector(bob.Bus())
	now := time.Now()
	var mu sync.Mutex
	bob.Endpoint().SetClock(func() time.Time { mu.Lock(); defer mu.Unlock(); return now })

	a, b := simnet.NodeID(alice.PeerID()), simnet.NodeID(bob.PeerID())
	h.net.SetLinkOneWay(b, a, simnet.LinkProfile{Loss: 1})
	eve := attack.NewEavesdropper(h.net)
	signed := bob.Identity().Keys.SignCalls()
	sendAndWait(t, alice, bob, got, "first")
	// bob answers once the message is out. The tap sees his accept leave;
	// the link loses it.
	var accept []byte
	waituntil.Must(t, 5*time.Second, func() bool {
		for _, frame := range eve.FramesTo(a) {
			if f, err := endpoint.ParseFrame(frame); err == nil {
				if wire, ok := f.Msg.Get(proto.ElemEnvelope); ok && core.Mode(wire[0]) == core.ModeAccept {
					accept = wire
					return true
				}
			}
		}
		return false
	}, "bob sent no accept")
	if len(accept) != 65 || bytes.Contains(accept, []byte("<SecureMessage>")) {
		t.Fatalf("the accept on the wire is %d bytes (%q), want 65 and no XML", len(accept), accept)
	}
	h.net.SetLinkOneWay(b, a, simnet.ProfileLocal)

	// The link is whole again, but bob has just answered: no second answer yet.
	sendAndWait(t, alice, bob, got, "second")
	time.Sleep(50 * time.Millisecond)
	if core.ChannelTo(alice, bob.PeerID(), "math") {
		t.Fatal("a channel came up although the one accept sent was lost")
	}
	mu.Lock()
	now = now.Add(2 * time.Second)
	mu.Unlock()
	sendAndWait(t, alice, bob, got, "third")
	waituntil.Must(t, 5*time.Second, func() bool { return core.ChannelTo(alice, bob.PeerID(), "math") },
		"the re-sent accept did not bring the channel up")
	if n := bob.Identity().Keys.SignCalls() - signed; n != 0 {
		t.Errorf("bob signed %d times to answer the offer and its repetition, want none", n)
	}
	if e := sendAndWait(t, alice, bob, got, "fourth"); e.Attr("mode") != core.ModeChannel.String() {
		t.Fatalf("message after the re-sent accept raised as %q", e.Attr("mode"))
	}
	exactlyOnce(t, got, []string{"first", "second", "third", "fourth"})
}

// TestChannelReorderedFrames: frames that arrive in any order within the
// window are each accepted once, with and without a replay guard; the
// same frames delivered again are each refused.
func TestChannelReorderedFrames(t *testing.T) {
	for _, guarded := range []bool{false, true} {
		t.Run(fmt.Sprintf("guard=%v", guarded), func(t *testing.T) {
			h := newSecureHarness(t, true)
			alice := h.secureClient("alice")
			var opts []core.Option
			if guarded {
				opts = append(opts, core.WithReplayGuard(core.NewReplayGuard(time.Minute, 1024)))
			}
			bob := h.secureClient("bob", opts...)
			h.join(alice, "pw-alice")
			h.join(bob, "pw-bob")
			got := events.NewCollector(bob.Bus())
			channelUp(t, alice, bob, got)

			// Frames 1-20 are lost on the way; the attacker's tap saw them.
			a, b := simnet.NodeID(alice.PeerID()), simnet.NodeID(bob.PeerID())
			h.net.SetLinkOneWay(a, b, simnet.LinkProfile{Loss: 1})
			eve := attack.NewEavesdropper(h.net)
			texts := make([]string, 20)
			for i := range texts {
				texts[i] = fmt.Sprintf("frame %d", i+1)
				if err := alice.SecureMsgPeer(testCtx(t), bob.PeerID(), "math", texts[i]); err != nil {
					t.Fatal(err)
				}
			}
			h.net.SetLinkOneWay(a, b, simnet.ProfileLocal)
			frames := eve.FramesTo(b)
			if len(frames) != len(texts) {
				t.Fatalf("captured %d frames, want %d", len(frames), len(texts))
			}
			raw, err := attack.NewRawNode(h.net, "reorderer")
			if err != nil {
				t.Fatal(err)
			}
			for i := len(frames) - 1; i >= 0; i-- { // last first
				if err := raw.Replay(b, frames[i]); err != nil {
					t.Fatal(err)
				}
			}
			exactlyOnce(t, got, texts)
			for _, frame := range frames {
				if err := raw.Replay(b, frame); err != nil {
					t.Fatal(err)
				}
			}
			waituntil.Must(t, 5*time.Second, func() bool { return len(got.OfType(events.SecurityAlert)) == len(frames) },
				"not every replayed frame was refused with an alert")
			for _, text := range texts {
				if n := len(delivered(got, text)); n != 1 {
					t.Errorf("%q delivered %d times after the replay", text, n)
				}
			}
			for _, e := range got.OfType(events.SecurityAlert) {
				if e.From != alice.PeerID() || e.Payload["reason"] != core.ErrMessageReplayed.Error() {
					t.Errorf("replayed frame refused as %v from %s, want %v from the channel's peer", e.Payload, e.From, core.ErrMessageReplayed)
				}
			}
		})
	}
}

// TestChannelAuditAndMetrics: the operator's view. One audit record per
// handshake outcome, per channel dropped on a refusal and per message
// sent again — none per message — and four metrics that add up.
func TestChannelAuditAndMetrics(t *testing.T) {
	h := newSecureHarness(t, true)
	jnl, err := audit.Open(audit.Options{Dir: t.TempDir(), SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() })
	reg := telemetry.New()
	alice, bob := h.secureClient("alice"), h.secureClient("bob")
	for _, sc := range []*core.SecureClient{alice, bob} {
		sc.BindTelemetry(reg)
		sc.SetAuditor(jnl)
	}
	if _, ok := reg.Get(core.ChannelsOpenMetric); ok {
		t.Fatal("channel metrics attached before there was a channel to count")
	}
	h.join(alice, "pw-alice")
	h.join(bob, "pw-bob")
	got := events.NewCollector(bob.Bus())
	channelUp(t, alice, bob, got)
	for i := 0; i < 20; i++ {
		sendAndWait(t, alice, bob, got, fmt.Sprintf("frame %d", i))
	}
	if err := bob.Logout(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	h.join(bob, "pw-bob")
	sendAndWait(t, alice, bob, got, "after the logout")
	waituntil.Must(t, 5*time.Second, func() bool { return core.ChannelTo(alice, bob.PeerID(), "math") }, "no second channel")

	// alice writes "accept: established" once the channel is up, which is
	// what ChannelTo reads: wait for the record, not only for the channel.
	var records []string
	waituntil.Must(t, 5*time.Second, func() bool {
		rr := httptest.NewRecorder()
		jnl.DebugHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/audit?kind="+audit.KindChannel, nil))
		var page audit.PageJSON
		if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		records = records[:0]
		for _, e := range page.Events {
			who := "alice"
			if e.Peer == string(bob.PeerID()) {
				who = "bob"
			}
			records = append(records, fmt.Sprintf("%s %s: %s", who, e.Op, e.Reason))
		}
		return len(records) >= 6
	}, "fewer than six channel audit records")
	want := []string{
		"alice offer: accepted", // recorded by bob, about alice's offer
		"bob accept: established",
		"bob refusal: channel dropped",
		"bob fallback: sent again as an envelope",
		"alice offer: accepted",
		"bob accept: established",
	}
	// alice records the fallback once its envelope is on the wire, which
	// bob may answer first.
	sort.Strings(records)
	sort.Strings(want)
	if fmt.Sprint(records) != fmt.Sprint(want) {
		t.Errorf("channel audit records:\n got %q\nwant %q", records, want)
	}
	for name, want := range map[string]float64{
		core.ChannelsOpenMetric:        2,
		core.ChannelEstablishedMetric:  4,
		core.ChannelFallbacksMetric:    1,
		core.ChannelRefusalsSentMetric: 1,
	} {
		if got := metric(t, reg, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	alice.Close()
	bob.Close()
	if open := metric(t, reg, core.ChannelsOpenMetric); open != 0 {
		t.Errorf("%s = %v after both clients closed, want 0", core.ChannelsOpenMetric, open)
	}
	if est := metric(t, reg, core.ChannelEstablishedMetric); est != 4 {
		t.Errorf("%s = %v after both clients closed: a counter keeps what detached sources counted", core.ChannelEstablishedMetric, est)
	}
}

// TestAttackMirrorsChannelLayout: the attack suite builds frames and
// accepts and derives keys by hand, from the documented layout. Its
// negatives mean something only if an accept built that way from the
// RIGHT secrets is the one the responder makes, and a frame built that way
// opens.
func TestAttackMirrorsChannelLayout(t *testing.T) {
	a, err := keys.NewAgreementKey()
	if err != nil {
		t.Fatal(err)
	}
	b, err := keys.NewAgreementKey()
	if err != nil {
		t.Fatal(err)
	}
	initiatorKP := fuzzOpenKey(t)
	responderKP, err := keys.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	static, _ := responderKP.Public().AgreementShare()
	id := [16]byte{1, 2, 3}
	// The initiator's two outputs, in key-schedule order.
	eeA, _ := a.Agree(b.Share())
	esA, _ := a.Agree(static[:])
	key, tag, err := attack.ChannelKey(append(eeA, esA...), id[:], "urn:jxta:i", "urn:jxta:r", initiatorKP.Public(), responderKP.Public(), "g", a.Share(), b.Share())
	if err != nil {
		t.Fatal(err)
	}
	body, sentAt := []byte("built by hand"), time.Now().Add(-time.Second)
	frame, err := attack.ForgeFrame(key, id[:], 3, sentAt, body)
	if err != nil {
		t.Fatal(err)
	}
	accept, o, err := core.DeriveChannel(b, responderKP, id, "urn:jxta:i", "urn:jxta:r", initiatorKP.Public(), "g", a.Share(), frame)
	if err != nil || string(o.Body) != string(body) || o.Sender != "urn:jxta:i" || o.Group != "g" || !o.SentAt.Equal(sentAt) {
		t.Fatalf("a hand-built frame under the agreed key opened to (%+v, %v)", o, err)
	}
	if hand := attack.Accept(id[:], b.Share(), tag); !bytes.Equal(hand, accept) || len(accept) != 65 {
		t.Fatalf("hand-built accept %x, the responder's %x", hand, accept)
	}
}

// TestAttackMirrorsHeaderLayout: the attack suite builds and reads signed
// headers by hand (attack.Header, attack.ReadHeader). Its negatives mean
// something only if a header built that way is, field for field and byte
// for byte, the one this package's codec reads and writes, and is signed
// over the same bytes — the label and the kind among them.
func TestAttackMirrorsHeaderLayout(t *testing.T) {
	kp := fuzzOpenKey(t)
	body := []byte("built by hand")
	digest := keys.SHA256(body)
	fill := func(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }
	now := time.Unix(0, time.Now().UnixNano())
	for i, hand := range []*attack.Header{
		{Kind: core.ModeFull, Sender: "urn:jxta:s", Group: "g", Time: now, Digest: digest},
		{Kind: core.ModeFull, Sender: "urn:jxta:s", Group: "g", Time: now, Digest: digest, To: fill(1, 32), Channel: fill(2, 16), Share: fill(3, 32), Resends: fill(4, 24)},
		{Kind: core.ModeGroup, Sender: "urn:jxta:s", Group: "math", Time: now, Digest: digest, Nonce: fill(5, 16), Root: fill(6, 32)},
		{Kind: core.ModeFull, Time: time.Unix(0, -1), Digest: digest, To: fill(7, 32), Nonce: fill(8, 16), Root: fill(9, 32), Channel: fill(10, 16), Share: fill(11, 32), Resends: fill(12, 24)},
	} {
		// The last is left unsigned: the codec carries an empty signature,
		// which the open path refuses.
		signed := i < 3
		if signed {
			if err := hand.Sign(kp); err != nil {
				t.Fatal(err)
			}
		}
		wire := hand.Bytes()
		f, rest, ok := core.ParseHeader(attack.Block(wire, body))
		if !ok || !bytes.Equal(rest, body) {
			t.Fatalf("header %d: core does not read the hand-built header (%v) or finds another body", i, ok)
		}
		same := f.Kind == hand.Kind && f.Sender == hand.Sender && f.Group == hand.Group && f.At == hand.Time.UnixNano()
		for _, pair := range [][2][]byte{{f.Digest, hand.Digest}, {f.To, hand.To}, {f.Nonce, hand.Nonce}, {f.Root, hand.Root},
			{f.Channel, hand.Channel}, {f.Share, hand.Share}, {f.Resends, hand.Resends}, {f.Sig, hand.Signature}} {
			same = same && bytes.Equal(pair[0], pair[1]) // a field present is never empty
		}
		if !same {
			t.Fatalf("header %d: core reads %+v from %+v", i, f, hand)
		}
		// RSA PKCS #1 v1.5 signatures are deterministic: core signing the same
		// fields writes the very bytes the attack suite did.
		f.Sig = nil
		var signer *keys.KeyPair
		if signed {
			signer = kp
		}
		if again, err := core.AppendHeader(f, signer); err != nil || !bytes.Equal(again, wire) {
			t.Fatalf("header %d: core writes %x (%v), the attack suite %x", i, again, err, wire)
		}
		back, rest, err := attack.ReadHeader(attack.Block(wire, body))
		if err != nil || !bytes.Equal(back.Bytes(), wire) || !back.Time.Equal(hand.Time) || !bytes.Equal(rest, body) {
			t.Fatalf("header %d: read back by hand as %+v (%v)", i, back, err)
		}
	}
	// And a header a sealer wrote, read by hand and signed again by hand.
	sealed, err := core.Seal(kp, "urn:jxta:s", "g", body, kp.Public(), core.ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := core.Open(kp, sealed.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	h, rest, err := attack.ReadHeader(attack.Block(opened.Header(), opened.Body))
	if err != nil || h.Kind != core.ModeFull || h.Sender != "urn:jxta:s" || !bytes.Equal(h.Digest, digest) || !bytes.Equal(rest, body) {
		t.Fatalf("Seal's header read by hand as %+v (%v)", h, err)
	}
	sig := h.Signature
	if err := h.Sign(kp); err != nil || !bytes.Equal(h.Signature, sig) {
		t.Fatalf("the attack suite signs other bytes than Seal does (%v)", err)
	}
}
