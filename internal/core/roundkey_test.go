package core_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
)

// TestRelayedRoundsAgreeOncePerRoundKey: a client wraps its rounds under
// one ephemeral key for a channel's lifetime by its node's clock. Its
// first relayed round costs it one X25519 per recipient and each
// recipient one; a second costs no X25519 at either end. Past the
// lifetime the next round is wrapped under a new key, and a slice that
// was queued for an offline member under the old key, inside the
// relay's TTL (2 min), still opens when that member returns, beside the
// one under the new key.
func TestRelayedRoundsAgreeOncePerRoundKey(t *testing.T) {
	h := newSecureHarness(t, true)
	var z zone
	h.br.Endpoint().SetClock(z.now)
	rly, err := core.EnableBrokerRelay(h.br, core.RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rly.Close)
	h.db.Register("carol", "pw-carol", "math")
	alice, bob, carol := h.secureClient("alice"), h.secureClient("bob"), h.secureClient("carol")
	for _, c := range []*core.SecureClient{alice, bob, carol} {
		c.Endpoint().SetClock(z.now)
	}
	h.join(alice, "pw-alice")
	h.join(bob, "pw-bob")
	h.join(carol, "pw-carol")
	atBob, atCarol := events.NewCollector(bob.Bus()), events.NewCollector(carol.Bus())
	tap := attack.NewEavesdropper(h.net)
	agreements := func() [3]uint64 {
		var n [3]uint64
		for i, c := range []*core.SecureClient{alice, bob, carol} {
			n[i] = c.Identity().Keys.AgreeCalls()
		}
		return n
	}
	round := func(text string, want [3]uint64, to ...*events.Collector) {
		t.Helper()
		before := agreements()
		if _, _, err := alice.SecureMsgPeerGroupRelay(testCtx(t), "math", text); err != nil {
			t.Fatalf("round %q: %v", text, err)
		}
		for _, c := range to {
			if !secureDelivered(c, text) {
				t.Fatalf("round %q never delivered", text)
			}
		}
		after := agreements()
		for i, who := range []string{"alice", "bob", "carol"} {
			if got := after[i] - before[i]; got != want[i] {
				t.Errorf("round %q: %d X25519 at %s, want %d", text, got, who, want[i])
			}
		}
	}

	round("one", [3]uint64{2, 1, 1}, atBob, atCarol)
	round("two", [3]uint64{0, 0, 0}, atBob, atCarol)
	if err := carol.Logout(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	z.move(9 * time.Minute) // inside channelLifetime, for every node
	round("queued under the first key", [3]uint64{0, 0, 0}, atBob)
	z.move(10*time.Minute + time.Second) // past channelLifetime; that slice is inside the relay's TTL
	round("queued under the second key", [3]uint64{2, 1, 0}, atBob)

	before := carol.Identity().Keys.AgreeCalls()
	h.join(carol, "pw-carol")
	for _, text := range []string{"queued under the first key", "queued under the second key"} {
		if !secureDelivered(atCarol, text) {
			t.Fatalf("carol never received %q", text)
		}
	}
	if got := carol.Identity().Keys.AgreeCalls() - before; got != 1 {
		t.Errorf("carol's two queued slices cost her %d X25519, want 1 (the second key)", got)
	}
	if alerts := append(atBob.OfType(events.SecurityAlert), atCarol.OfType(events.SecurityAlert)...); len(alerts) != 0 {
		t.Fatalf("%d security alerts, first: %v", len(alerts), alerts[0].Payload)
	}

	// What bob was pushed: four slices, the first three under one
	// ephemeral share and the last under another.
	var shares [][]byte
	for _, frame := range tap.FramesTo(simnet.NodeID(bob.PeerID())) {
		f, err := endpoint.ParseFrame(frame)
		if err != nil {
			continue
		}
		section, _ := f.Msg.Get(proto.ElemSlices)
		recs, err := proto.ParseSliceRecords(section)
		if err != nil {
			continue
		}
		for rec, ok := recs.Next(); ok; rec, ok = recs.Next() {
			if wire := rec.Slice; core.Mode(wire[0]) == core.ModeSlice {
				shares = append(shares, wire[1+4+4:1+4+4+keys.ShareSize])
			}
		}
	}
	if len(shares) != 4 || !bytes.Equal(shares[0], shares[1]) || !bytes.Equal(shares[0], shares[2]) || bytes.Equal(shares[2], shares[3]) {
		t.Fatalf("bob's slices carry the ephemeral shares %x, want three alike and a fourth of its own", shares)
	}
}

// TestRoundKeyConcurrentFlows: two flows seal through one client's round
// key at once — a direct fan-out, whose slices bob opens on his group
// pipe's pump, and a relayed one, whose slices he opens on the relay
// push's delivery goroutine, into one key pair's memo — while the
// sender's clock crosses the key's lifetime back and forth, so that
// rotations race the seals. Every message is delivered once, and nothing
// is refused.
func TestRoundKeyConcurrentFlows(t *testing.T) {
	h := newSecureHarness(t, true)
	rly, err := core.EnableBrokerRelay(h.br, core.RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rly.Close)
	var z zone
	alice, bob := h.secureClient("alice"), h.secureClient("bob")
	alice.Endpoint().SetClock(z.now)
	h.join(alice, "pw-alice")
	h.join(bob, "pw-bob")
	atBob := events.NewCollector(bob.Bus())
	ctx := testCtx(t)

	const rounds = 6
	var texts []string
	errs := make(chan error, 2*rounds)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, flow := range []string{"direct", "relayed"} {
		for i := 0; i < rounds; i++ {
			texts = append(texts, fmt.Sprintf("%s %d", flow, i))
		}
		wg.Add(1)
		go func(flow string) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				text := fmt.Sprintf("%s %d", flow, i)
				var err error
				if flow == "direct" {
					_, err = alice.SecureMsgPeerGroup(ctx, "math", text)
				} else {
					_, _, err = alice.SecureMsgPeerGroupRelay(ctx, "math", text)
				}
				if err != nil {
					errs <- fmt.Errorf("%q: %w", text, err)
				}
			}
		}(flow)
	}
	go func() {
		defer close(done)
		for k := 0; k < 2*rounds; k++ {
			z.move(time.Duration(k%2) * (10*time.Minute + time.Second))
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-done
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	exactlyOnce(t, atBob, texts)
}
