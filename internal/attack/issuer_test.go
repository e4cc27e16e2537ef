package attack_test

import (
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
