package attack_test

// Negatives for the join path's two economies: one pipe record per
// (peer, group), and one credential per validity window.

import (
	"bytes"
	"context"
	"encoding/base64"
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
	mallory := s.join(t, "mallory", "mallory-pw")
	bobEvents := events.NewCollector(bob.Bus())
	ctx := testCtx(t)
	// bob holds mallory's legitimate records before the attack starts: her
	// pipe advertisement and her login's presence record. The broker pushes
	// the two separately, each on a fabric goroutine of its own, so either
	// may land last.
	malloryPipe := advert.GroupPipeID(mallory.PeerID(), "math")
	malloryPresence := (&advert.Presence{PeerID: mallory.PeerID(), Group: "math"}).AdvID()
	waituntil.Must(t, 5*time.Second, func() bool {
		_, errPipe := bob.Cache().Lookup(advert.TypePipe, malloryPipe)
		_, errPresence := bob.Cache().Lookup(advert.TypePresence, malloryPresence)
		return errPipe == nil && errPresence == nil
	}, "bob never received mallory's pipe advertisement and presence")
	brokerLen, bobLen := s.br.Cache().Len(), bob.Cache().Len()
	// Those two and bob's own pipe: nothing else is in flight to bob.
	if bobLen != 3 {
		t.Fatalf("bob holds %d records before the attack, want 3: his pipe, mallory's pipe and her presence", bobLen)
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

// loginRequest is a signed SecureLoginRequest as SecureLogin builds it,
// by hand: the fields of user, pass, peer and kp and the session
// identifier sid, signed for the broker with ID broker (core's
// loginSigned: the request, then that ID).
func loginRequest(t *testing.T, user, pass string, peer keys.PeerID, kp *keys.KeyPair, sid string, broker keys.PeerID) []byte {
	t.Helper()
	keyB64, err := kp.Public().MarshalBase64()
	if err != nil {
		t.Fatal(err)
	}
	doc := xmldoc.New("SecureLoginRequest", "")
	doc.AddText("User", user)
	doc.AddText("Pass", pass)
	doc.AddText("PeerID", string(peer))
	doc.AddText("Key", keyB64)
	doc.AddText("Agree", kp.Public().ShareBase64())
	doc.AddText("Sid", sid)
	sig, err := kp.Sign(append(doc.Canonical(), broker...))
	if err != nil {
		t.Fatal(err)
	}
	doc.AddText("Signature", base64.StdEncoding.EncodeToString(sig))
	return doc.Canonical()
}

// sendLogin seals req to the broker key to and sends it as a secureLogin
// through sc's connection.
func sendLogin(t *testing.T, sc *core.SecureClient, to *keys.PublicKey, req []byte) (*endpoint.Message, error) {
	t.Helper()
	env, err := to.Encrypt(req)
	if err != nil {
		t.Fatal(err)
	}
	return sc.Call(testCtx(t), endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpSecureLogin).
		Add(proto.ElemEnvelope, env.Bytes()))
}

// rawSecureLogin sends a hand-built secureLogin to s's broker through sc's
// connection, spending the session identifier sc's SecureConnection
// obtained.
func (s *secureStack) rawSecureLogin(t *testing.T, sc *core.SecureClient, user, pass string, peer keys.PeerID, kp *keys.KeyPair) (*endpoint.Message, error) {
	t.Helper()
	return sendLogin(t, sc, s.brKP.Public(), loginRequest(t, user, pass, peer, kp, sc.Sid(), s.br.PeerID()))
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
	thief := s.connected(t, "mallory")
	resp, err := s.rawSecureLogin(t, thief, "alice", "alice-secret-pw", alice.PeerID(), thief.Identity().Keys)
	var opErr *client.OpError
	if !errors.As(err, &opErr) || opErr.Token != proto.ErrCBIDMismatch {
		t.Fatalf("login claiming alice's ID with another key: err = %v, want %q", err, proto.ErrCBIDMismatch)
	}
	if resp != nil && resp.Has(proto.ElemCred) {
		t.Fatal("a refused login was answered with a credential")
	}

	// Alice's key and peer ID, logging in as another user whose password
	// it knows: authenticated, and issued that user's own credential.
	if err := alice.SecureConnection(ctx, s.br.PeerID()); err != nil {
		t.Fatal(err)
	}
	signed := s.brKP.SignCalls()
	resp, err = s.rawSecureLogin(t, alice, "bob", "bob-secret-pw", alice.PeerID(), alice.Identity().Keys)
	if err != nil {
		t.Fatalf("login as bob under alice's key: %v", err)
	}
	raw, _ := resp.Get(proto.ElemCred)
	credDoc, err := xmldoc.ParseCanonical(bytes.Clone(raw))
	if err != nil {
		t.Fatal(err)
	}
	issued, err := cred.Parse(credDoc)
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
	if signs := rejoin(); signs != 1 || !alice.Identity().Credential.Equal(first) {
		t.Fatalf("with more than half the validity left: %d broker signatures, same credential = %v; want 1, true",
			signs, alice.Identity().Credential.Equal(first))
	}
	if got := alice.Identity().Credential.NotAfter; !got.Equal(first.NotAfter) {
		t.Fatalf("re-join moved NotAfter %v -> %v", first.NotAfter, got)
	}

	passed.Store(int64(validity/2 + time.Minute))
	if signs := rejoin(); signs != 2 {
		t.Fatalf("with less than half the validity left: %d broker signatures, want 2 (challenge + issuance)", signs)
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
// the broker a signature, and the flood is three tables' worth: past that
// a full table meets nothing it has not met.
func TestSecureConnectFloodBoundsSidTable(t *testing.T) {
	const sidCapacity = 4096 // core's bound on the table
	const calls = 3 * sidCapacity
	s := newSecureStack(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	chall := make([]byte, 32)
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
	t.Logf("%d secureConnection calls: at most %d session identifiers pending", calls, most)
	s.join(t, "alice", "alice-secret-pw")
}
