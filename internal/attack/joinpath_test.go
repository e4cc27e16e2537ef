package attack_test

// Negatives for the join path's three economies: one pipe record per
// (peer, group), one credential per validity window, and one signature
// per advertisement a key pair publishes.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/waituntil"
	"jxtaoverlay/internal/xdsig"
	"jxtaoverlay/internal/xmldoc"
)

// signedPipeAdv is a pipe advertisement signed with id's own chain.
func signedPipeAdv(t *testing.T, id *membership.Identity, pipeID string, owner keys.PeerID, group string) *xmldoc.Element {
	t.Helper()
	doc, err := (&advert.Pipe{PipeID: pipeID, PipeType: advert.PipeUnicast, Name: "msg/" + group, PeerID: owner, Group: group}).Document()
	if err != nil {
		t.Fatal(err)
	}
	if err := signDoc(doc, id); err != nil {
		t.Fatal(err)
	}
	return doc
}

func refusedAsUnsigned(err error) bool {
	var opErr *client.OpError
	return errors.As(err, &opErr) && opErr.Token == proto.ErrUnsignedAdv
}

// (a) A credentialed member cannot grow anyone's cache: a pipe
// advertisement it signs correctly, for itself, in its own group, is
// still refused under any ID but the one derived from (peer, group) —
// so the most it can hold is the one record it already has.
func TestMintedPipeIDsRefused(t *testing.T) {
	s := newSecureStack(t)
	bob := s.join(t, "bob", "bob-secret-pw") // a resident
	bobEvents := events.NewCollector(bob.Bus())
	mallory := s.join(t, "mallory", "mallory-pw")
	ctx := testCtx(t)
	// bob holds mallory's legitimate record before the attack starts, her
	// pipe advertisement, and has been told of her login: a presence
	// notice, which leaves no record. The broker pushes the two
	// separately, each on a fabric goroutine of its own, so either may
	// land last.
	malloryPipe := advert.GroupPipeID(mallory.PeerID(), "math")
	waituntil.Must(t, 5*time.Second, func() bool {
		_, errPipe := bob.Cache().Lookup(advert.TypePipe, malloryPipe)
		told := false
		for _, e := range bobEvents.OfType(events.PresenceUpdate) {
			told = told || e.From == mallory.PeerID() && e.Attr("status") == advert.StatusOnline
		}
		return errPipe == nil && told
	}, "bob never received mallory's pipe advertisement and presence")
	brokerLen, bobLen := s.br.Cache().Len(), bob.Cache().Len()
	// That and bob's own pipe: nothing else is in flight to bob.
	if bobLen != 2 {
		t.Fatalf("bob holds %d records before the attack, want 2: his pipe and mallory's", bobLen)
	}

	for i := 0; i < 1000; i++ {
		minted := fmt.Sprintf("urn:jxta:pipe-%032x", i) // the shape of a real ID
		doc := signedPipeAdv(t, mallory.Identity(), minted, mallory.PeerID(), "math")
		if err := mallory.PublishAdvDoc(ctx, doc); !refusedAsUnsigned(err) {
			t.Fatalf("publication %d under a minted ID: err = %v, want the %q refusal", i, err, proto.ErrUnsignedAdv)
		}
	}
	// Anything the broker had propagated would be at bob's before this.
	if err := mallory.SecureMsgPeer(ctx, bob.PeerID(), "math", "done"); err != nil {
		t.Fatal(err)
	}
	if _, ok := bobEvents.WaitFor(events.SecureMessage, 5*time.Second); !ok {
		t.Fatal("barrier message not delivered")
	}
	if got := s.br.Cache().Len(); got != brokerLen {
		t.Fatalf("broker records moved %d -> %d under 1000 minted IDs", brokerLen, got)
	}
	if got := bob.Cache().Len(); got != bobLen {
		t.Fatalf("resident records moved %d -> %d under 1000 minted IDs", bobLen, got)
	}
}

// (b) A derived ID is a public function of (peer, group): mallory can
// compute alice's as well as alice can. The derived-ID check alone would
// therefore pass an advertisement that names alice as its peer and
// carries alice's ID — it is the ownership check (the signer must be the
// peer the advertisement describes) that refuses it. The other way to
// aim at alice's slot, keeping mallory as the peer so that ownership
// holds, is what the derived-ID check refuses. Between them nobody but
// alice can replace alice's record.
func TestDerivedIDOfAnotherMemberNotOverwritable(t *testing.T) {
	s := newSecureStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	bob := s.join(t, "bob", "bob-secret-pw")
	mallory := s.join(t, "mallory", "mallory-pw")
	ctx := testCtx(t)
	aliceID := advert.GroupPipeID(alice.PeerID(), "math")
	before, err := s.br.Cache().Lookup(advert.TypePipe, aliceID)
	if err != nil {
		t.Fatal(err)
	}
	wire := bytes.Clone(before.Doc.Canonical())

	// Passes the derived-ID check; refused by ownership.
	asAlice := signedPipeAdv(t, mallory.Identity(), aliceID, alice.PeerID(), "math")
	if err := mallory.PublishAdvDoc(ctx, asAlice); !refusedAsUnsigned(err) {
		t.Fatalf("alice's ID naming alice, signed by mallory: err = %v", err)
	}
	// Passes ownership; refused by the derived-ID check.
	redirect := signedPipeAdv(t, mallory.Identity(), aliceID, mallory.PeerID(), "math")
	if err := mallory.PublishAdvDoc(ctx, redirect); !refusedAsUnsigned(err) {
		t.Fatalf("alice's ID naming mallory, signed by mallory: err = %v", err)
	}

	after, err := s.br.Cache().Lookup(advert.TypePipe, aliceID)
	if err != nil || !bytes.Equal(after.Doc.Canonical(), wire) {
		t.Fatalf("alice's record at the broker changed (err=%v)", err)
	}
	pipe, _, err := bob.LookupPipe(ctx, alice.PeerID(), "math")
	if err != nil || pipe.PeerID != alice.PeerID() {
		t.Fatalf("bob resolves alice's pipe to %+v (err=%v)", pipe, err)
	}
}

// loginRequest is a signed login request as SecureLogin builds it, by
// hand: the fields of user, pass, peer and kp and the session identifier
// sid, signed for the broker with ID broker.
func loginRequest(t *testing.T, user, pass string, peer keys.PeerID, kp *keys.KeyPair, sid string, broker keys.PeerID) []byte {
	t.Helper()
	der, err := kp.Public().MarshalDER()
	if err != nil {
		t.Fatal(err)
	}
	share, _ := kp.Public().AgreementShare()
	nonce := proto.NewNonce()
	req, err := proto.AppendRequest(nil, kp, broker, proto.KindLogin, time.Now(), nonce,
		[]byte(user), []byte(pass), []byte(peer), der, share[:], []byte(sid))
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// rawConn is a secureConnection run by hand: the session identifier the
// broker issued, and the key its login is sealed under.
type rawConn struct {
	sc  *core.SecureClient
	sid string
	key [keys.ContentKeySize]byte
}

// rawConnect runs secureConnection by hand through sc's connection to
// broker: a fresh ephemeral share as the challenge, and the login key
// core.ConnectKeys derives from the answer beside the tag, which must be
// the tag the broker sent. sc's own session identifier is left as it was.
func rawConnect(t *testing.T, sc *core.SecureClient, broker keys.PeerID) *rawConn {
	t.Helper()
	ctx := testCtx(t)
	if err := sc.Connect(ctx, broker); err != nil {
		t.Fatal(err)
	}
	eph, err := keys.NewAgreementKey()
	if err != nil {
		t.Fatal(err)
	}
	e := eph.Share()
	resp, err := sc.Call(ctx, endpoint.NewMessage().AddString(proto.ElemOp, proto.OpSecureConnect).Add(proto.ElemChallenge, e))
	if err != nil {
		t.Fatal(err)
	}
	sid, _ := resp.GetString(proto.ElemSid)
	tag, _ := resp.Get(proto.ElemTag)
	share, _ := resp.Get(proto.ElemShare)
	secret, err := eph.Agree(share)
	if err != nil {
		t.Fatal(err)
	}
	want, key := core.ConnectKeys(secret, e, share, broker, sid)
	if !bytes.Equal(tag, want[:]) {
		t.Fatal("the broker's tag is not the one derived beside the login key")
	}
	return &rawConn{sc: sc, sid: sid, key: key}
}

// sealLogin seals req under key as SecureLogin does: nonce ‖ AES-GCM.
func sealLogin(t *testing.T, key [keys.ContentKeySize]byte, req []byte) []byte {
	t.Helper()
	nonce, ct, err := keys.AEADSeal(key[:], req)
	if err != nil {
		t.Fatal(err)
	}
	return append(nonce, ct...)
}

// send sends sealed as a secureLogin through the connection, with handle
// in clear as the key's session identifier.
func (c *rawConn) send(t *testing.T, handle string, sealed []byte) (*endpoint.Message, error) {
	t.Helper()
	return c.sc.Call(testCtx(t), endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpSecureLogin).
		AddString(proto.ElemSid, handle).
		Add(proto.ElemEnvelope, sealed))
}

// login seals req under the connect's key and sends it with its sid.
func (c *rawConn) login(t *testing.T, req []byte) (*endpoint.Message, error) {
	t.Helper()
	return c.send(t, c.sid, sealLogin(t, c.key, req))
}

// rawLogin connects sc to s's broker by hand and sends it the login
// request of user, pass, peer and kp, signed for the broker with the
// connect's session identifier.
func (s *secureStack) rawLogin(t *testing.T, sc *core.SecureClient, user, pass string, peer keys.PeerID, kp *keys.KeyPair) (*endpoint.Message, error) {
	t.Helper()
	c := rawConnect(t, sc, s.br.PeerID())
	return c.login(t, loginRequest(t, user, pass, peer, kp, c.sid, s.br.PeerID()))
}

// (c) The stored credential is handed only to the login that would have
// been issued an identical one: same subject, same key, same username.
// Knowing the password is not enough.
func TestStoredCredentialOnlyForSameKeyAndUser(t *testing.T) {
	s := newSecureStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	stored := alice.Identity().Credential
	ctx := testCtx(t)
	if err := alice.Logout(ctx); err != nil {
		t.Fatal(err)
	}

	// The right password and alice's peer ID under another key: stopped
	// at the CBID check, before the table is looked at, with nothing in
	// the answer.
	thief := s.client(t, "mallory")
	resp, err := s.rawLogin(t, thief, "alice", "alice-secret-pw", alice.PeerID(), thief.Identity().Keys)
	var opErr *client.OpError
	if !errors.As(err, &opErr) || opErr.Token != proto.ErrCBIDMismatch {
		t.Fatalf("login claiming alice's ID with another key: err = %v, want %q", err, proto.ErrCBIDMismatch)
	}
	if resp != nil && resp.Has(proto.ElemCred) {
		t.Fatal("a refused login was answered with a credential")
	}

	// Alice's key and peer ID, logging in as another user whose password
	// it knows: authenticated, and issued that user's own credential.
	signed := s.brKP.SignCalls()
	resp, err = s.rawLogin(t, alice, "bob", "bob-secret-pw", alice.PeerID(), alice.Identity().Keys)
	if err != nil {
		t.Fatalf("login as bob under alice's key: %v", err)
	}
	raw, _ := resp.Get(proto.ElemCred)
	issued, err := cred.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if issued.SubjectName != "bob" || bytes.Equal(issued.Signature, stored.Signature) {
		t.Fatalf("login under another username was handed the stored credential (names %q)", issued.SubjectName)
	}
	if got := s.brKP.SignCalls() - signed; got != 1 {
		t.Fatalf("broker signed %d times for a login the table must not answer, want 1 issuance", got)
	}
}

// (d) Logging in again never extends a credential, and never hands out
// one that is mostly spent: with less than half its validity left the
// stored credential is replaced by a fresh issuance.
func TestStoredCredentialNotReusedPastHalfValidity(t *testing.T) {
	const validity = 10 * time.Minute
	s := newSecureStackWith(t, core.BrokerConfig{RequireSignedAdvs: true, CredValidity: validity})
	// Time passes for the broker and for alice alike: a broker minutes
	// ahead of its client would issue her a credential that, by her clock,
	// is not valid yet.
	var passed atomic.Int64
	later := func() time.Time { return time.Now().Add(time.Duration(passed.Load())) }
	s.br.Endpoint().SetClock(later)
	alice := s.client(t, "alice")
	alice.Endpoint().SetClock(later)
	if err := alice.Join(testCtx(t), s.br.PeerID(), "alice-secret-pw"); err != nil {
		t.Fatal(err)
	}
	first := alice.Identity().Credential
	ctx := testCtx(t)

	rejoin := func() (signs uint64) {
		t.Helper()
		if err := alice.Logout(ctx); err != nil {
			t.Fatal(err)
		}
		before := s.brKP.SignCalls()
		if err := alice.Join(ctx, s.br.PeerID(), "alice-secret-pw"); err != nil {
			t.Fatal(err)
		}
		return s.brKP.SignCalls() - before
	}

	passed.Store(int64(validity/2 - time.Minute))
	if signs := rejoin(); signs != 0 || !alice.Identity().Credential.Equal(first) {
		t.Fatalf("with more than half the validity left: %d broker signatures, same credential = %v; want 0, true",
			signs, alice.Identity().Credential.Equal(first))
	}
	if got := alice.Identity().Credential.NotAfter; !got.Equal(first.NotAfter) {
		t.Fatalf("re-join moved NotAfter %v -> %v", first.NotAfter, got)
	}

	passed.Store(int64(validity/2 + time.Minute))
	if signs := rejoin(); signs != 1 {
		t.Fatalf("with less than half the validity left: %d broker signatures, want 1 (the issuance)", signs)
	}
	// The fresh credential runs a full validity from the broker's now.
	if fresh, want := alice.Identity().Credential, s.br.Now().Add(validity); fresh.NotAfter.Sub(want).Abs() > time.Second {
		t.Fatalf("fresh credential's NotAfter %v, want the broker's now + %v = %v (first ran to %v)", fresh.NotAfter, validity, want, first.NotAfter)
	}
}

// (e) secureConnection needs no login, and every call is handed a session
// identifier the broker must remember until it is presented. A flood of
// them from strangers — each from a peer ID never seen before, so that no
// per-peer limit applies — fills the table to its bound and no further,
// and the join of an honest client behind it is served. Each call costs
// the broker one X25519 on its agreement key and no signature, and the
// flood is three tables' worth: past that a full table meets nothing it
// has not met.
func TestSecureConnectFloodBoundsSidTable(t *testing.T) {
	const sidCapacity = 4096 // core's bound on the table
	const calls = 3 * sidCapacity
	s := newSecureStack(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	eph, err := keys.NewAgreementKey()
	if err != nil {
		t.Fatal(err)
	}
	chall := eph.Share()
	signed, agreed := s.brKP.SignCalls(), s.brKP.AgreeCalls()
	most := 0
	for i := 0; i < calls; i++ {
		stranger, err := endpoint.NewService(s.net, keys.PeerID("urn:jxta:stranger-"+strconv.Itoa(i)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := stranger.Request(ctx, s.br.PeerID(), proto.BrokerService, endpoint.NewMessage().
			AddString(proto.ElemOp, proto.OpSecureConnect).
			Add(proto.ElemChallenge, chall))
		stranger.Close()
		if err != nil {
			t.Fatalf("secureConnection %d: %v", i, err)
		}
		if ok, tok := proto.IsOK(resp); !ok {
			t.Fatalf("secureConnection %d refused (%s): the flood must be one the broker answers", i, tok)
		}
		most = max(most, s.brSec.PendingSids())
	}
	if most > sidCapacity {
		t.Fatalf("%d secureConnection calls left %d session identifiers pending, want at most %d", calls, most, sidCapacity)
	}
	if n := s.brKP.SignCalls() - signed; n != 0 {
		t.Fatalf("%d secureConnection calls cost the broker %d signatures, want 0", calls, n)
	}
	if n := s.brKP.AgreeCalls() - agreed; n != calls {
		t.Fatalf("%d secureConnection calls cost the broker %d X25519 operations, want one each", calls, n)
	}
	t.Logf("%d secureConnection calls: at most %d session identifiers pending", calls, most)
	s.join(t, "alice", "alice-secret-pw")
}

// (f) A re-join's advertisement signature comes from the key pair's memo
// of the documents it signed (RSASSA-PKCS1-v1_5 is deterministic), and
// the memo answers for the document it signed and for nothing near it.
// An advertisement one field off the one mallory published gets a fresh
// signature. The published signature spliced onto it — its whole
// Signature element, or its value under the new SignedInfo — is refused
// by the broker and by bob, whose verifier holds the published
// advertisement's verdict.
func TestMemoizedSignatureSplicedOntoAnotherAdvRefused(t *testing.T) {
	s := newSecureStack(t)
	bob := s.join(t, "bob", "bob-secret-pw")
	mallory := s.join(t, "mallory", "mallory-pw")
	ctx := testCtx(t)
	id := mallory.Identity()
	pipeID := advert.GroupPipeID(mallory.PeerID(), "math")
	rec, err := s.br.Cache().Lookup(advert.TypePipe, pipeID)
	if err != nil {
		t.Fatal(err)
	}
	published := rec.Doc.Clone()
	if _, err := bob.VerifyCache().VerifyTrusted(published, bob.Now()); err != nil {
		t.Fatal(err)
	}

	// Signed again, the published advertisement is a memo hit: the same
	// bytes, no private-key operation.
	again := published.Clone()
	signed := id.Keys.SignCalls()
	if err := signDoc(again, id); err != nil {
		t.Fatal(err)
	}
	if n := id.Keys.SignCalls() - signed; n != 0 || !bytes.Equal(again.Canonical(), published.Canonical()) {
		t.Fatalf("re-signing the published advertisement: %d private-key operations, same bytes %v",
			n, bytes.Equal(again.Canonical(), published.Canonical()))
	}

	// One field off: the name. A miss, and another signature.
	renamed, err := (&advert.Pipe{PipeID: pipeID, PipeType: advert.PipeUnicast, Name: "msg/elsewhere",
		PeerID: mallory.PeerID(), Group: "math"}).Document()
	if err != nil {
		t.Fatal(err)
	}
	signed = id.Keys.SignCalls()
	if err := signDoc(renamed, id); err != nil {
		t.Fatal(err)
	}
	value := func(doc *xmldoc.Element) string {
		return doc.Child(xdsig.SignatureElement).ChildText("SignatureValue")
	}
	if n := id.Keys.SignCalls() - signed; n != 1 || value(renamed) == value(published) {
		t.Fatalf("an advertisement one field off: %d private-key operations, same signature %v",
			n, value(renamed) == value(published))
	}

	wholeSignature := renamed.Clone()
	wholeSignature.RemoveChildren(xdsig.SignatureElement)
	wholeSignature.Add(published.Child(xdsig.SignatureElement).Clone())
	valueOnly := renamed.Clone()
	valueOnly.Child(xdsig.SignatureElement).Child("SignatureValue").SetText(value(published))
	for _, c := range []struct {
		name string
		doc  *xmldoc.Element
		want error
	}{
		{"the published Signature element", wholeSignature, xdsig.ErrDigestMismatch},
		{"the published SignatureValue", valueOnly, xdsig.ErrBadSignature},
	} {
		if err := mallory.PublishAdvDoc(ctx, c.doc.Clone()); !refusedAsUnsigned(err) {
			t.Errorf("%s spliced onto the renamed advertisement, published: err = %v, want the refusal", c.name, err)
		}
		if _, err := bob.VerifyCache().VerifyTrusted(c.doc.Clone(), bob.Now()); !errors.Is(err, c.want) {
			t.Errorf("%s spliced onto the renamed advertisement, at bob: err = %v, want %v", c.name, err, c.want)
		}
	}

	// The renamed advertisement under its own signature passes both.
	if _, err := bob.VerifyCache().VerifyTrusted(renamed.Clone(), bob.Now()); err != nil {
		t.Fatalf("the renamed advertisement under its own signature, at bob: %v", err)
	}
	if err := mallory.PublishAdvDoc(ctx, renamed); err != nil {
		t.Fatalf("the renamed advertisement under its own signature, published: %v", err)
	}
}
