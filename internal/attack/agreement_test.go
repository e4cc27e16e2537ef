// Negatives for the certified agreement key: the X25519 key a client
// credential certifies beside the RSA key, which every round's key wrap is
// ECIES to. The share is a signed field of the credential (a swapped one
// fails the chain, cached verdict or not); a slice's ephemeral share and
// wrap are bound by the wrap's tag and by the signed slice tree (swapped,
// small-order or re-wrapped by an insider, they are refused); and a
// recipient whose credential certifies no share is sent nothing at all.
package attack_test

import (
	"bytes"
	"encoding/base64"
	"errors"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/waituntil"
	"jxtaoverlay/internal/xdsig"
)

// TestAgreementKeySwappedInCachedChainRefused: bob has verified alice's
// signed pipe advertisement, so her chain's verdict sits in his trust
// store's cache. Whoever carries the advertisement next swaps the share in
// alice's credential for mallory's — leaving the signature, and every other
// field the verdict was cached under, as it was. Had the cache key left the
// share out, the swapped chain would ride the honest verdict and every
// round bob sent alice would be wrapped to mallory. It misses the cache,
// and the broker's signature over the credential refuses it.
func TestAgreementKeySwappedInCachedChainRefused(t *testing.T) {
	s := newSecureStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	bob := s.join(t, "bob", "bob-secret-pw")
	mallory := s.join(t, "mallory", "mallory-pw")
	_, doc, err := bob.LookupPipe(testCtx(t), alice.PeerID(), "math")
	if err != nil {
		t.Fatal(err)
	}
	vc := bob.VerifyCache()
	if _, err := vc.VerifyTrusted(doc, bob.Now()); err != nil {
		t.Fatalf("alice's honest advertisement: %v", err)
	}
	malloryShare, _ := mallory.Identity().Keys.Public().AgreementShare()

	forged := doc.Clone()
	leaf := forged.Child(xdsig.SignatureElement).Child("KeyInfo").Child(cred.ElementName)
	raw, err := base64.StdEncoding.DecodeString(leaf.Text)
	if err != nil {
		t.Fatal(err)
	}
	aliceShare, _ := alice.Identity().Keys.Public().AgreementShare()
	c, err := cred.Parse(raw)
	if err != nil || c.Subject != alice.PeerID() || bytes.Count(raw, aliceShare[:]) != 1 {
		t.Fatal("test setup: alice's credential, with its share, is not the advertisement's first KeyInfo entry")
	}
	leaf.SetText(base64.StdEncoding.EncodeToString(bytes.Replace(raw, aliceShare[:], malloryShare[:], 1)))
	hits, _ := vc.TrustStore().ChainCacheStats()
	if res, err := vc.VerifyTrusted(forged, bob.Now()); !errors.Is(err, cred.ErrBadSignature) {
		t.Fatalf("advertisement carrying mallory's share in alice's credential = (%v, %v), want ErrBadSignature", res, err)
	}
	if after, _ := vc.TrustStore().ChainCacheStats(); after != hits {
		t.Fatal("the swapped chain hit the honest chain's cached verdict")
	}
	// The honest advertisement is still alice's, share and all.
	res, err := vc.VerifyTrusted(doc, bob.Now())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Signer.Key.AgreementShare(); got == malloryShare {
		t.Fatal("alice's credential certifies mallory's share")
	}
}

// roundOf seals one round from alice to the listed parties.
func roundOf(t *testing.T, alice roundParty, to ...roundParty) *core.DetachedRound {
	t.Helper()
	pubs := make([]*keys.PublicKey, len(to))
	for i, p := range to {
		pubs[i] = p.kp.Public()
	}
	d, err := core.SealGroupDetached(alice.kp, alice.id, "math", []byte("round secret"), pubs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// withLeaf is wire with edit applied to a copy of its leaf.
func withLeaf(t *testing.T, wire []byte, edit func(leaf attack.SliceLeaf)) []byte {
	t.Helper()
	wire = bytes.Clone(wire)
	leaf, err := attack.CutSlice(wire)
	if err != nil {
		t.Fatal(err)
	}
	edit(leaf)
	return wire
}

// TestAgreementKeySwappedEphemeralOrWrapRefused: a relay — no insider,
// no key — that hands bob his slice with another round's ephemeral share,
// or with the other member's wrap in place of his own, has him unwrap
// nothing: the share enters the key derivation and the tag, the wrap is
// under the tag. Refused as not his, before a byte is decrypted.
func TestAgreementKeySwappedEphemeralOrWrapRefused(t *testing.T) {
	alice, bob, mallory := newRoundParty(t), newRoundParty(t), newRoundParty(t)
	d := roundOf(t, alice, bob, mallory)
	other := roundOf(t, alice, bob, mallory)
	otherLeaf, err := attack.CutSlice(other.Slice(0))
	if err != nil {
		t.Fatal(err)
	}
	malloryLeaf, err := attack.CutSlice(d.Slice(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		wire []byte
	}{
		{"another round's ephemeral share", withLeaf(t, d.Slice(0), func(l attack.SliceLeaf) { copy(l.Ephemeral(), otherLeaf.Ephemeral()) })},
		{"the other member's wrap", withLeaf(t, d.Slice(0), func(l attack.SliceLeaf) { copy(l.Wrap(), malloryLeaf.Wrap()) })},
		{"another round's wrap to bob", withLeaf(t, d.Slice(0), func(l attack.SliceLeaf) { copy(l.Wrap(), otherLeaf.Wrap()) })},
	} {
		if _, err := core.OpenSlice(bob.kp, tc.wire, nil); !errors.Is(err, core.ErrNotRecipient) {
			t.Errorf("bob's slice with %s = %v, want ErrNotRecipient", tc.name, err)
		}
	}
	if _, err := core.OpenSlice(bob.kp, d.Slice(0), nil); err != nil {
		t.Fatalf("bob's honest slice: %v", err)
	}
}

// TestAgreementKeyInsiderRewrapRefused: mallory, a member of alice's
// round, unwraps the round key from her own slice and wraps it to bob
// under an ephemeral key of her own, behind bob's index, fingerprint and
// proof and in front of the sender's ciphertext. The wrap is genuinely
// bob's — it unwraps to the round key — but the leaf commits to the
// ephemeral share and the wrap the sender signed for: ErrRoundBinding.
func TestAgreementKeyInsiderRewrapRefused(t *testing.T) {
	alice, bob, mallory := newRoundParty(t), newRoundParty(t), newRoundParty(t)
	d := roundOf(t, alice, bob, mallory)
	forged, err := attack.RewrapSlice(mallory.kp, d.Slice(1), d.Slice(0), bob.kp.Public())
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := attack.CutSlice(forged)
	if err != nil {
		t.Fatal(err)
	}
	honest, err := attack.CutSlice(d.Slice(0))
	if err != nil {
		t.Fatal(err)
	}
	nonce := honest.Nonce()
	rewrapped, err := bob.kp.UnwrapFrom(leaf.Ephemeral(), leaf.Wrap(), nonce)
	if err != nil {
		t.Fatalf("mallory's wrap does not open for bob: %v", err)
	}
	if sent, err := bob.kp.UnwrapFrom(honest.Ephemeral(), honest.Wrap(), nonce); err != nil || sent != rewrapped {
		t.Fatalf("mallory's wrap holds another key than alice's round key (%v)", err)
	}
	if _, err := core.OpenSlice(bob.kp, forged, nil); !errors.Is(err, core.ErrRoundBinding) {
		t.Fatalf("slice re-wrapped by an insider = %v, want ErrRoundBinding", err)
	}
}

// TestAgreementKeyLowOrderEphemeralRefused: an ephemeral share of small
// order forces the same X25519 output whatever bob's key, which would let
// whoever chose it know bob's key-encryption key. Every encoding of such a
// point is refused before a key is derived from it.
func TestAgreementKeyLowOrderEphemeralRefused(t *testing.T) {
	alice, bob := newRoundParty(t), newRoundParty(t)
	wire := roundOf(t, alice, bob).Slice(0)
	p := append([]byte{0xed}, bytes.Repeat([]byte{0xff}, 30)...) // p = 2^255 - 19, little-endian
	p = append(p, 0x7f)
	for name, share := range map[string][]byte{
		"u = 0":     make([]byte, keys.ShareSize),
		"u = 1":     append([]byte{1}, make([]byte, keys.ShareSize-1)...),
		"u = p ≡ 0": p,
	} {
		forged := withLeaf(t, wire, func(l attack.SliceLeaf) { copy(l.Ephemeral(), share) })
		if _, err := core.OpenSlice(bob.kp, forged, nil); !errors.Is(err, core.ErrNotRecipient) {
			t.Errorf("ephemeral share %s = %v, want ErrNotRecipient", name, err)
		}
	}
}

// TestAgreementKeyMissingRecipientSentNothing: carol holds a credential
// that certifies her RSA key and no agreement key — issued by a broker
// that does not certify one — and publishes her pipe advertisement under
// it. A round can be wrapped to nothing else, so alice's group sends,
// direct and relayed, refuse carol with keys.ErrNoAgreementKey, and bob
// gets each message; carol is sent no slice and no weaker form.
func TestAgreementKeyMissingRecipientSentNothing(t *testing.T) {
	s := newSecureStack(t)
	rly, err := core.EnableBrokerRelay(s.br, core.RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rly.Close)
	s.db.Register("carol", "carol-pw", "math")
	alice := s.join(t, "alice", "alice-secret-pw")
	bob := s.join(t, "bob", "bob-secret-pw")
	carol := s.join(t, "carol", "carol-pw")
	ctx := testCtx(t)
	// carol's join pushed alice her first advertisement, on a fabric
	// goroutine of its own: let it land before the one that replaces it.
	waituntil.Must(t, 5*time.Second, func() bool {
		_, err := alice.Cache().Lookup(advert.TypePipe, advert.GroupPipeID(carol.PeerID(), "math"))
		return err == nil
	}, "alice never received carol's pipe advertisement")

	brCred := s.brSec.Credential()
	carolKP := carol.Identity().Keys
	bare, err := cred.Issue(s.brKP, brCred.Subject, carol.PeerID(), "carol", cred.RoleClient, carolKP.Public().WithShare(nil), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := (&advert.Pipe{PipeID: advert.GroupPipeID(carol.PeerID(), "math"), PipeType: advert.PipeUnicast,
		PeerID: carol.PeerID(), Group: "math"}).Document()
	if err != nil {
		t.Fatal(err)
	}
	if err := xdsig.Sign(doc, carolKP, bare, brCred); err != nil {
		t.Fatal(err)
	}
	if err := carol.PublishAdvDoc(ctx, doc); err != nil {
		t.Fatalf("the broker refused carol's advertisement under a credential it signed: %v", err)
	}
	waituntil.Must(t, 5*time.Second, func() bool {
		_, raw, err := alice.LookupPipe(ctx, carol.PeerID(), "math")
		if err != nil {
			return false
		}
		res, err := alice.VerifyCache().VerifyTrusted(raw, alice.Now())
		if err != nil {
			return false
		}
		_, certified := res.Signer.Key.AgreementShare()
		return !certified
	}, "alice never saw carol's advertisement without an agreement key")

	atBob := events.NewCollector(bob.Bus())
	tap := attack.NewEavesdropper(s.net)
	sent, err := alice.SecureMsgPeerGroup(ctx, "math", "direct")
	if sent != 1 || !errors.Is(err, keys.ErrNoAgreementKey) {
		t.Fatalf("direct round: sent %d, %v; want 1 and ErrNoAgreementKey for carol", sent, err)
	}
	direct, queued, err := alice.SecureMsgPeerGroupRelay(ctx, "math", "relayed")
	if direct+queued != 1 || !errors.Is(err, keys.ErrNoAgreementKey) {
		t.Fatalf("relayed round: %d direct, %d queued, %v; want bob alone and ErrNoAgreementKey for carol", direct, queued, err)
	}
	waituntil.Must(t, 5*time.Second, func() bool { return len(atBob.OfType(events.SecureMessage)) == 2 },
		"bob never got both messages")
	for _, frame := range tap.FramesTo(simnet.NodeID(carol.PeerID())) {
		if f, err := endpoint.ParseFrame(frame); err == nil && f.Msg.Has(proto.ElemEnvelope) {
			t.Fatal("carol was sent a secure wire")
		}
	}
}
