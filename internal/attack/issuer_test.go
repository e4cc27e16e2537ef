package attack_test

import (
	"strings"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/waituntil"
	"jxtaoverlay/internal/xdsig"
)

// TestClientMintedCredentialRefused: only an administrator or a broker
// issues credentials. Logged-in mallory holds a client credential and the
// key it certifies, so she can sign a credential of her own — for a fresh
// key, under the name "alice" — and with that key a pipe advertisement
// whose chain (the minted credential, hers, her broker's) verifies link by
// link under the keys it carries. The broker refuses the publication; and
// bob, with that advertisement put straight into his cache, refuses a
// message signed under the minted credential: nothing from "alice" is
// delivered.
func TestClientMintedCredentialRefused(t *testing.T) {
	s := newSecureStack(t)
	bob := s.join(t, "bob", "bob-secret-pw")
	mallory := s.join(t, "mallory", "mallory-pw")
	atBob := events.NewCollector(bob.Bus())
	ctx := testCtx(t)

	fresh, err := keys.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	freshID, err := keys.CBID(fresh.Public())
	if err != nil {
		t.Fatal(err)
	}
	own := mallory.Identity()
	minted, err := cred.IssueAt(mallory.Now(), own.Keys, mallory.PeerID(), freshID, "alice", cred.RoleClient, fresh.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := (&advert.Pipe{PipeID: advert.GroupPipeID(freshID, "math"), PipeType: advert.PipeUnicast,
		Name: "msg/math", PeerID: freshID, Group: "math"}).Document()
	if err != nil {
		t.Fatal(err)
	}
	if err := xdsig.Sign(doc, fresh, append([]*cred.Credential{minted}, own.Chain...)...); err != nil {
		t.Fatal(err)
	}

	if err := mallory.PublishAdvDoc(ctx, doc.Clone()); !refusedAsUnsigned(err) {
		t.Errorf("publication under a credential mallory issued: err = %v, want the refusal", err)
	}

	if _, err := bob.Cache().Put(doc); err != nil {
		t.Fatal(err)
	}
	body := []byte("pay mallory 100")
	h := attack.NewHeader(core.ModeFull, freshID, "math", body)
	bobKey := bob.Identity().Keys.Public()
	fp, err := bobKey.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	h.To = fp[:]
	if err := h.Sign(fresh); err != nil {
		t.Fatal(err)
	}
	wire, err := attack.EnvelopeTo(bobKey, attack.Block(h.Bytes(), body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := attack.NewRawNode(s.net, "mallory-raw")
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.Replay(simnet.NodeID(bob.PeerID()), attack.SpoofedPipeEnvelope(freshID, bob.PeerID(), "math", wire)); err != nil {
		t.Fatal(err)
	}
	waituntil.Must(t, 20*time.Second, func() bool {
		return len(atBob.OfType(events.SecurityAlert))+len(atBob.OfType(events.SecureMessage)) > 0
	}, "bob neither raised nor refused the message under the minted credential")
	if got := atBob.OfType(events.SecureMessage); len(got) != 0 {
		t.Fatalf("bob delivered %q from %q, user %q", got[0].Data, got[0].From, got[0].Attr("user"))
	}
}

// TestForgedLapsedSenderChainRefusedAtOnce: a stranger signs a pipe
// advertisement for alice with a key of its own, under a chain whose leaf
// it "issued" in the broker's name with a window that ended an hour ago,
// and gets it into bob's cache. A link's signature is checked before its
// window, so bob reads the forgery as one — not as a lapse a fresher copy
// could mend, which he would ask again for while his pump waits — and
// refuses alice's message after ONE verdict on the copy, with one
// SecurityAlert naming core.ErrSenderUnknown.
func TestForgedLapsedSenderChainRefusedAtOnce(t *testing.T) {
	s := newSecureStack(t)
	bob := s.join(t, "bob", "bob-secret-pw")
	alice := s.join(t, "alice", "alice-secret-pw", core.WithMode(core.ModeFull))
	alicePipe := advert.GroupPipeID(alice.PeerID(), "math")
	waituntil.Must(t, 5*time.Second, func() bool {
		_, err := bob.Cache().Lookup(advert.TypePipe, alicePipe)
		return err == nil
	}, "the broker never pushed alice's pipe advertisement to bob")

	stranger, err := keys.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	brCred := s.brSec.Credential()
	leaf, err := cred.IssueAt(bob.Now().Add(-2*time.Hour), stranger, brCred.Subject, alice.PeerID(), "alice", cred.RoleClient, stranger.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := (&advert.Pipe{PipeID: alicePipe, PipeType: advert.PipeUnicast,
		Name: "msg/math", PeerID: alice.PeerID(), Group: "math"}).Document()
	if err != nil {
		t.Fatal(err)
	}
	if err := xdsig.Sign(doc, stranger, leaf, brCred); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Cache().PutCanonical(doc.Canonical()); err != nil {
		t.Fatal(err)
	}

	atBob := events.NewCollector(bob.Bus())
	_, before := bob.VerifyCache().Stats()
	if err := alice.SecureMsgPeer(testCtx(t), bob.PeerID(), "math", "from alice"); err != nil {
		t.Fatal(err)
	}
	alert, ok := atBob.WaitFor(events.SecurityAlert, 5*time.Second)
	if !ok {
		t.Fatal("no security alert for the forged lapsed chain")
	}
	if alert.From != alice.PeerID() || !strings.Contains(alert.Payload["reason"], core.ErrSenderUnknown.Error()) {
		t.Fatalf("alert %v against %s, want %v against alice", alert.Payload, alert.From, core.ErrSenderUnknown)
	}
	if _, after := bob.VerifyCache().Stats(); after-before != 1 {
		t.Fatalf("bob verified the forged copy %d times, want 1", after-before)
	}
	if n := len(atBob.OfType(events.SecurityAlert)); n != 1 {
		t.Fatalf("%d alerts, want 1", n)
	}
	if n := len(atBob.OfType(events.SecureMessage)); n != 0 {
		t.Fatalf("%d messages delivered under a forged chain", n)
	}
}
