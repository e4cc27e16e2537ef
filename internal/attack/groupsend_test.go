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
// signature flipped. Each resilient relayed send to the roster reaches
// bob, reports carol's advertisement as invalid, and raises exactly one
// SecurityAlert against her — the forged entry is refused once, not
// retried until the send's budget is spent with nothing delivered.
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
	for i, text := range []string{"first round", "second round"} {
		direct, queued, err := rc.SendGroupRelay(testCtx(t), "math", text)
		if !errors.Is(err, core.ErrPeerAdvInvalid) || !errors.Is(err, xdsig.ErrBadSignature) {
			t.Fatalf("send %d: err = %v, want carol reported as %v: %v", i, err, core.ErrPeerAdvInvalid, xdsig.ErrBadSignature)
		}
		if direct+queued != 1 {
			t.Fatalf("send %d: direct %d + queued %d, want bob's one slice", i, direct, queued)
		}
		waituntil.Must(t, 5*time.Second, func() bool {
			for _, e := range atBob.OfType(events.SecureMessage) {
				if string(e.Data) == text {
					return true
				}
			}
			return false
		}, "bob never opened the round")
		if n := alertsAgainstCarol(); n != i+1 {
			t.Fatalf("after send %d: %d alerts against carol, want %d: one per send", i, n, i+1)
		}
	}
}
