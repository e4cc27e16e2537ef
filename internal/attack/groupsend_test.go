// A resilient group send against one forged recipient. Anyone who
// reaches a client's overlay:client service can push it an
// advertisement, so a sender's cache may hold, for one member, a pipe
// advertisement that does not verify. That member is refused and
// reported; it must not hold the round back from everyone else.
package attack_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/waituntil"
	"jxtaoverlay/internal/xdsig"
)

// TestForgedRecipientDoesNotSinkResilientGroupSend: alice's cache holds
// a copy of carol's signed pipe advertisement with one bit of its
// signature flipped. The first resilient relayed send to the roster
// reaches bob, reports carol's advertisement as invalid, and raises
// exactly one SecurityAlert against her — the forged entry is refused
// once, not retried until the send's budget is spent with nothing
// delivered. The refused copy leaves alice's cache with that verdict, so
// the second send asks the broker and reaches both, with no second alert.
func TestForgedRecipientDoesNotSinkResilientGroupSend(t *testing.T) {
	s := newSecureStack(t)
	rly, err := core.EnableBrokerRelay(s.br, core.RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rly.Close)
	s.db.Register("carol", "carol-secret-pw", "math")
	alice := s.client(t, "alice")
	rc := core.NewResilientClient(alice, s.br.PeerID(), "alice-secret-pw")
	if err := rc.Connect(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	bob := s.join(t, "bob", "bob-secret-pw")
	carol := s.join(t, "carol", "carol-secret-pw")

	carolPipe := advert.GroupPipeID(carol.PeerID(), "math")
	waituntil.Must(t, 5*time.Second, func() bool {
		_, err := alice.Cache().Lookup(advert.TypePipe, carolPipe)
		return err == nil
	}, "alice never received carol's pipe advertisement")
	rec, err := alice.Cache().Lookup(advert.TypePipe, carolPipe)
	if err != nil {
		t.Fatal(err)
	}
	forged := bytes.Clone(rec.Doc.Canonical())
	at := bytes.Index(forged, []byte("<SignatureValue>")) + len("<SignatureValue>")
	forged[at] ^= 1
	if _, err := alice.Cache().PutCanonical(forged); err != nil {
		t.Fatal(err)
	}

	atAlice, atBob := events.NewCollector(alice.Bus()), events.NewCollector(bob.Bus())
	alertsAgainstCarol := func() int {
		n := 0
		for _, e := range atAlice.OfType(events.SecurityAlert) {
			if e.From == carol.PeerID() {
				n++
			}
		}
		return n
	}
	opened := func(c *events.Collector, text string) func() bool {
		return func() bool {
			for _, e := range c.OfType(events.SecureMessage) {
				if string(e.Data) == text {
					return true
				}
			}
			return false
		}
	}
	direct, queued, err := rc.SendGroupRelay(testCtx(t), "math", "first round")
	if !errors.Is(err, core.ErrPeerAdvInvalid) || !errors.Is(err, xdsig.ErrBadSignature) {
		t.Fatalf("first send: err = %v, want carol reported as %v: %v", err, core.ErrPeerAdvInvalid, xdsig.ErrBadSignature)
	}
	if direct+queued != 1 {
		t.Fatalf("first send: direct %d + queued %d, want bob's one slice", direct, queued)
	}
	waituntil.Must(t, 5*time.Second, opened(atBob, "first round"), "bob never opened the first round")
	if n := alertsAgainstCarol(); n != 1 {
		t.Fatalf("after the first send: %d alerts against carol, want 1", n)
	}

	atCarol := events.NewCollector(carol.Bus())
	direct, queued, err = rc.SendGroupRelay(testCtx(t), "math", "second round")
	if err != nil || direct+queued != 2 {
		t.Fatalf("second send: direct %d + queued %d, err %v; want both members' slices", direct, queued, err)
	}
	waituntil.Must(t, 5*time.Second, opened(atBob, "second round"), "bob never opened the second round")
	waituntil.Must(t, 5*time.Second, opened(atCarol, "second round"), "carol never opened the second round")
	if n := alertsAgainstCarol(); n != 1 {
		t.Fatalf("after the second send: %d alerts against carol, want still 1", n)
	}
}
