package core_test

// The join path leaves one record per (peer, group) behind however often
// the peer joins: a re-join's pipe advertisement replaces its
// predecessor, so a correspondent that cached an earlier session's
// advertisement reaches — and is authenticated by — the current one, and
// within a credential's validity window the broker signs once for all of
// an identity's joins, and the peer signs its advertisement once.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/waituntil"
)

// secureDelivered waits for an authenticated SecureMessage carrying text.
func secureDelivered(c *events.Collector, text string) bool {
	return waituntil.True(5*time.Second, func() bool {
		for _, e := range c.OfType(events.SecureMessage) {
			if string(e.Data) == text && e.Attr("authenticated") == "true" {
				return true
			}
		}
		return false
	})
}

// onlineNotices counts the PresenceUpdates c collected that announced
// peer online in group.
func onlineNotices(c *events.Collector, peer keys.PeerID, group string) int {
	n := 0
	for _, e := range c.OfType(events.PresenceUpdate) {
		if e.From == peer && e.Group == group && e.Attr("status") == advert.StatusOnline {
			n++
		}
	}
	return n
}

func TestSecureMsgReachesRecipientAfterRejoin(t *testing.T) {
	h := newSecureHarness(t, true)
	alice := h.secureClient("alice")
	bob := h.secureClient("bob")
	h.join(alice, "pw-alice")
	aliceEvents := events.NewCollector(alice.Bus())
	h.join(bob, "pw-bob")
	bobEvents := events.NewCollector(bob.Bus())
	ctx := testCtx(t)

	// alice caches (and verifies) the advertisement of bob's first session.
	if err := alice.SecureMsgPeer(ctx, bob.PeerID(), "math", "round 0"); err != nil || !secureDelivered(bobEvents, "round 0") {
		t.Fatalf("first message: err=%v", err)
	}
	firstCred := bob.Identity().Credential

	var aliceLen, brokerLen int
	for round := 1; round <= 12; round++ {
		if err := bob.Logout(ctx); err != nil {
			t.Fatalf("round %d logout: %v", round, err)
		}
		signed, bobSigned := h.brKP.SignCalls(), bob.Identity().Keys.SignCalls()
		h.join(bob, "pw-bob")
		// The broker proved itself (an agreement, no signature) and checked
		// the password; it did not sign a second credential for a subject
		// whose first has most of its validity left.
		if got := h.brKP.SignCalls() - signed; got != 0 {
			t.Fatalf("round %d: broker signed %d times for a re-join, want 0", round, got)
		}
		// bob signed his login, which carries the fresh session
		// identifier; his pipe advertisement is the one he signed before,
		// and its signature came from his key pair's memo.
		if got := bob.Identity().Keys.SignCalls() - bobSigned; got != 1 {
			t.Fatalf("round %d: bob performed %d private-key operations for a re-join, want 1 (the login)", round, got)
		}
		if c := bob.Identity().Credential; !c.Equal(firstCred) {
			t.Fatalf("round %d: re-join was issued a different credential (NotAfter %v, first %v)", round, c.NotAfter, firstCred.NotAfter)
		}

		text := fmt.Sprintf("round %d", round)
		if err := alice.SecureMsgPeer(ctx, bob.PeerID(), "math", text); err != nil {
			t.Fatalf("round %d send: %v", round, err)
		}
		if !secureDelivered(bobEvents, text) {
			t.Fatalf("round %d: secure message sent without error and never delivered", round)
		}
		// And the other way: alice authenticates the re-joined sender
		// through the same record.
		reply := fmt.Sprintf("reply %d", round)
		if err := bob.SecureMsgPeer(ctx, alice.PeerID(), "math", reply); err != nil {
			t.Fatalf("round %d reply: %v", round, err)
		}
		if !secureDelivered(aliceEvents, reply) {
			t.Fatalf("round %d: reply from the re-joined peer not delivered", round)
		}

		// alice holds bob's pipe record and has been told of each of his
		// logins: a presence notice, which leaves no record.
		settled := func() bool {
			_, errPipe := alice.Cache().Lookup(advert.TypePipe, advert.GroupPipeID(bob.PeerID(), "math"))
			return errPipe == nil && onlineNotices(aliceEvents, bob.PeerID(), "math") == 1+round
		}
		switch round {
		case 1:
			waituntil.Must(t, 5*time.Second, settled, "alice holds no pipe record for bob, or was not told of his login")
			aliceLen, brokerLen = alice.Cache().Len(), h.br.Cache().Len()
		case 10:
			waituntil.Must(t, 5*time.Second, settled, "alice holds no pipe record for bob, or was not told of his login")
			if a, b := alice.Cache().Len(), h.br.Cache().Len(); a != aliceLen || b != brokerLen {
				t.Fatalf("records after re-join 10: alice %d, broker %d; after re-join 1: %d, %d", a, b, aliceLen, brokerLen)
			}
		}
	}
	// Every re-join republished a byte-identical signed advertisement:
	// the broker verified it once and answered the rest from the digest.
	if hits, _ := h.brSec.VerifyCache().Stats(); hits < 12 {
		t.Fatalf("broker verify cache hits = %d, want one per re-join", hits)
	}
}

// TestLogoutWaitsForPump: a pump still inside its handler as the session
// ends — parked here in a SecureMessage subscriber, after the envelope
// opened and before the channel offer it carried is answered — finishes
// before Logout returns, and the channel its answer installs goes with
// the session it belongs to. (Logout used to drop the channels first and
// not wait: the answer installed an inbound channel of the old session
// into the next one, whose peer then held that channel ID under another
// key, and the next frame on it was lost.)
func TestLogoutWaitsForPump(t *testing.T) {
	h := newSecureHarness(t, true)
	alice := h.secureClient("alice")
	bob := h.secureClient("bob")
	h.join(alice, "pw-alice")
	h.join(bob, "pw-bob")
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	bob.Bus().Subscribe(events.SecureMessage, func(events.Event) {
		once.Do(func() { close(parked); <-release })
	})
	ctx := testCtx(t)
	if err := alice.SecureMsgPeer(ctx, bob.PeerID(), "math", "carries an offer"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the envelope never reached bob's subscriber")
	}
	loggedOut := make(chan error, 1)
	go func() { loggedOut <- bob.Logout(ctx) }()
	var err error
	returned := false
	select {
	case err = <-loggedOut:
		returned = true
		t.Error("Logout returned while a pump was inside its handler")
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	// The pump answers the offer either way; alice holding the channel
	// says the answer has been installed and sent.
	waituntil.Must(t, 5*time.Second, func() bool { return core.ChannelTo(alice, bob.PeerID(), "math") }, "bob never answered the offer")
	if !returned {
		select {
		case err = <-loggedOut:
		case <-time.After(5 * time.Second):
			t.Fatal("Logout never returned")
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if n := core.InboundChannels(bob); n != 0 {
		t.Fatalf("%d inbound channels of the old session survived Logout", n)
	}
}

// A session that dies (lease lapse) and is resumed by the ResilientClient
// re-runs the whole bring-up; its correspondents' cached records must
// still lead to it. Time passes for the clients as for the broker: a
// login stamped minutes behind the broker's clock is refused.
func TestSecureMsgReachesResumedRecipient(t *testing.T) {
	h := newLeaseHarness(t)
	connect := func(alias, password string) *core.ResilientClient {
		sc := h.secureClient(alias)
		sc.Endpoint().SetClock(h.clock)
		rc := core.NewResilientClient(sc, h.br.PeerID(), password, resilientCfg())
		if err := rc.Connect(testCtx(t)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rc.Close)
		return rc
	}
	alice := connect("alice", "pw-alice")
	bob := connect("bob", "pw-bob")
	bobEvents := events.NewCollector(bob.Bus())
	ctx := testCtx(t)
	if err := alice.SecureMsgPeer(ctx, bob.PeerID(), "math", "round 0"); err != nil || !secureDelivered(bobEvents, "round 0") {
		t.Fatalf("first message: err=%v", err)
	}
	brokerLen := h.br.Cache().Len()
	for round := 1; round <= 12; round++ {
		h.advance(testLeaseTTL + time.Second)
		h.brSec.ExpireLapsedNow()
		for _, rc := range []*core.ResilientClient{bob, alice} {
			if h.br.PeerOnline(rc.PeerID()) {
				t.Fatalf("round %d: lapsed session still online", round)
			}
			if _, err := rc.CallResilient(ctx, listPeersReq("math")); err != nil {
				t.Fatalf("round %d resume: %v", round, err)
			}
		}
		text := fmt.Sprintf("round %d", round)
		if err := alice.SecureMsgPeer(ctx, bob.PeerID(), "math", text); err != nil {
			t.Fatalf("round %d send: %v", round, err)
		}
		if !secureDelivered(bobEvents, text) {
			t.Fatalf("round %d: secure message to the resumed peer never delivered", round)
		}
	}
	if st := bob.Stats(); st.Resumes != 12 {
		t.Fatalf("bob resumed %d times, want 12", st.Resumes)
	}
	if got := h.br.Cache().Len(); got != brokerLen {
		t.Fatalf("broker records after 12 resumes each: %d, before: %d", got, brokerLen)
	}
}
