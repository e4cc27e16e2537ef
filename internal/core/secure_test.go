package core_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
	"jxtaoverlay/internal/waituntil"
	"jxtaoverlay/internal/xdsig"
)

// secureHarness is a full §4.1 deployment: administrator, credentialed
// broker with the security extension, user database, PSE clients.
type secureHarness struct {
	t      *testing.T
	net    *simnet.Network
	dep    *core.Deployment
	br     *broker.Broker
	brSec  *core.BrokerSecurity
	brKP   *keys.KeyPair
	brCred *cred.Credential
	db     *userdb.Store
}

func newSecureHarness(t *testing.T, requireSigned bool) *secureHarness {
	t.Helper()
	return newSecureHarnessWith(t, core.BrokerConfig{RequireSignedAdvs: requireSigned})
}

func newSecureHarnessWith(t *testing.T, sc core.BrokerConfig) *secureHarness {
	t.Helper()
	h := &secureHarness{t: t}
	h.net = simnet.NewNetwork(simnet.ProfileLocal)
	t.Cleanup(h.net.Close)

	var err error
	h.dep, err = core.NewDeployment("uoc-admin", 0)
	if err != nil {
		t.Fatal(err)
	}
	h.db = userdb.NewStoreIter(4)
	h.db.Register("alice", "pw-alice", "math")
	h.db.Register("bob", "pw-bob", "math")

	site, err := h.dep.StartBroker(
		broker.Config{Name: "broker-1", Net: h.net, DB: broker.LocalDB(h.db), RequireSecureLogin: true}, sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	h.br, h.brSec, h.brKP, h.brCred = site.Broker, site.Security, site.KeyPair, site.Credential
	return h
}

func (h *secureHarness) secureClient(alias string, opts ...core.Option) *core.SecureClient {
	h.t.Helper()
	sc, err := h.dep.NewClient(h.net, alias, opts...)
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(sc.Close)
	return sc
}

func (h *secureHarness) join(sc *core.SecureClient, password string) {
	h.t.Helper()
	if err := sc.Join(testCtx(h.t), h.br.PeerID(), password); err != nil {
		h.t.Fatal(err)
	}
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestSecureConnection(t *testing.T) {
	h := newSecureHarness(t, true)
	sc := h.secureClient("alice")
	col := events.NewCollector(sc.Bus())
	ctx := testCtx(t)
	if err := sc.SecureConnection(ctx, h.br.PeerID()); err != nil {
		t.Fatalf("SecureConnection: %v", err)
	}
	if sc.Sid() == "" {
		t.Fatal("no session identifier stored")
	}
	if sc.BrokerCredential() == nil || sc.BrokerCredential().SubjectName != "broker-1" {
		t.Fatal("broker credential not stored")
	}
	if _, ok := col.WaitFor(events.BrokerVerified, 5*time.Second); !ok {
		t.Fatal("no BrokerVerified event")
	}
	if h.brSec.PendingSids() != 1 {
		t.Fatalf("pending sids = %d", h.brSec.PendingSids())
	}
}

func TestSecureConnectionRejectsFakeBroker(t *testing.T) {
	// The DNS-spoofing scenario of §2.3: traffic is redirected to a
	// broker that does not hold an administrator-issued credential.
	h := newSecureHarness(t, true)

	fakeDep, err := core.NewDeployment("evil-admin", 0)
	if err != nil {
		t.Fatal(err)
	}
	fake, err := fakeDep.StartBroker(broker.Config{
		Name: "broker-1", // same well-known name!
		Net:  h.net,
		DB: broker.AuthenticatorFunc(func(_ context.Context, u, p string) ([]string, error) {
			return []string{"math"}, nil // accepts anyone, to harvest credentials
		}),
	}, core.BrokerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fake.Close)
	fakeBroker := fake.Broker

	sc := h.secureClient("alice")
	col := events.NewCollector(sc.Bus())
	ctx := testCtx(t)
	err = sc.SecureConnection(ctx, fakeBroker.PeerID())
	if err == nil {
		t.Fatal("secureConnection accepted a fake broker")
	}
	if _, ok := col.WaitFor(events.BrokerRejected, 5*time.Second); !ok {
		t.Fatal("no BrokerRejected event")
	}
	if sc.Sid() != "" {
		t.Fatal("sid stored despite rejection")
	}
}

func TestSecureConnectionRejectsKeylessImpersonator(t *testing.T) {
	// An attacker replays the real broker's credential, agreement key and
	// share statement but cannot agree on the fresh challenge without the
	// agreement key SK_Br derives.
	h := newSecureHarness(t, true)
	realCred, err := h.brCred.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	share, _ := h.brKP.Public().AgreementShare()
	statement, err := h.brKP.Sign(core.ShareStatement(h.brCred.Subject, share[:]))
	if err != nil {
		t.Fatal(err)
	}

	impKP, _ := keys.NewKeyPair()
	impID, _ := keys.CBID(impKP.Public())
	impDB := broker.AuthenticatorFunc(func(_ context.Context, u, p string) ([]string, error) {
		return nil, nil
	})
	imp, err := broker.New(broker.Config{Name: "broker-1", PeerID: impID, Net: h.net, DB: impDB})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(imp.Close)
	// The impersonator answers secureConnection with the stolen
	// credential, share and statement, and a tag under its own agreement
	// key.
	imp.RegisterOp(proto.OpSecureConnect, func(_ keys.PeerID, msg *endpoint.Message) *endpoint.Message {
		e, _ := msg.Get(proto.ElemChallenge)
		secret, _ := impKP.Agree(e)
		tag, _ := core.ConnectKeys(secret, e, share[:], h.brCred.Subject, "deadbeef")
		return proto.OK().
			AddString(proto.ElemSid, "deadbeef").
			Add(proto.ElemTag, tag[:]).
			Add(proto.ElemCred, realCred).
			Add(proto.ElemShare, share[:]).
			Add(proto.ElemSig, statement)
	})

	sc := h.secureClient("alice")
	col := events.NewCollector(sc.Bus())
	ctx := testCtx(t)
	if err := sc.SecureConnection(ctx, imp.PeerID()); !errors.Is(err, core.ErrBrokerNotLegit) {
		t.Fatalf("secureConnection to an impersonator without SK_Br: err = %v, want ErrBrokerNotLegit", err)
	}
	e, ok := col.WaitFor(events.BrokerRejected, 5*time.Second)
	if !ok || !strings.Contains(e.Payload["reason"], "does not hold its agreement key") {
		t.Fatalf("rejected as %v, want for the tag", e.Payload)
	}
}

func TestSecureLogin(t *testing.T) {
	h := newSecureHarness(t, true)
	sc := h.secureClient("alice")
	h.join(sc, "pw-alice")

	if p, _ := h.br.Peer(sc.PeerID()); !p.Online {
		t.Fatal("not logged in")
	}
	id := sc.Identity()
	if id.Credential == nil {
		t.Fatal("no credential issued")
	}
	if id.Credential.SubjectName != "alice" || id.Credential.Role != cred.RoleClient {
		t.Fatalf("credential = %+v", id.Credential)
	}
	if id.Credential.Issuer != h.brCred.Subject {
		t.Fatal("credential not issued by broker")
	}
	// Sid must be consumed on both sides.
	if sc.Sid() != "" {
		t.Fatal("client kept the sid")
	}
	if h.brSec.PendingSids() != 0 {
		t.Fatal("broker kept the sid")
	}
	if got := sc.Groups(); len(got) != 1 || got[0] != "math" {
		t.Fatalf("groups = %v", got)
	}
}

func TestSecureLoginWrongPassword(t *testing.T) {
	h := newSecureHarness(t, true)
	sc := h.secureClient("alice")
	ctx := testCtx(t)
	if err := sc.SecureConnection(ctx, h.br.PeerID()); err != nil {
		t.Fatal(err)
	}
	if err := sc.SecureLogin(ctx, "wrong"); err == nil {
		t.Fatal("secureLogin with wrong password succeeded")
	}
	if p, _ := h.br.Peer(sc.PeerID()); p.Online || len(sc.Groups()) != 0 {
		t.Fatal("logged in with a wrong password")
	}
}

func TestSecureLoginRequiresSecureConnection(t *testing.T) {
	h := newSecureHarness(t, true)
	sc := h.secureClient("alice")
	ctx := testCtx(t)
	if err := sc.SecureLogin(ctx, "pw-alice"); err == nil {
		t.Fatal("secureLogin without secureConnection succeeded")
	}
}

func TestSidIsSingleUse(t *testing.T) {
	h := newSecureHarness(t, true)
	sc := h.secureClient("alice")
	h.join(sc, "pw-alice")
	// A second login without a fresh secureConnection must fail: the sid
	// was consumed.
	ctx := testCtx(t)
	if err := sc.SecureLogin(ctx, "pw-alice"); err == nil {
		t.Fatal("second secureLogin with consumed sid succeeded")
	}
	// After re-running secureConnection, login works again.
	if err := sc.SecureConnection(ctx, h.br.PeerID()); err != nil {
		t.Fatal(err)
	}
	if err := sc.SecureLogin(ctx, "pw-alice"); err != nil {
		t.Fatalf("re-login after fresh secureConnection: %v", err)
	}
}

// TestSidExpires: a session identifier not presented within its
// lifetime is refused, and a fresh secureConnection gets another. The
// three minutes pass for the broker and for alice alike.
func TestSidExpires(t *testing.T) {
	h := newSecureHarness(t, true)
	sc := h.secureClient("alice")
	ctx := testCtx(t)
	if err := sc.SecureConnection(ctx, h.br.PeerID()); err != nil {
		t.Fatal(err)
	}
	late := func() time.Time { return time.Now().Add(3 * time.Minute) }
	h.br.Endpoint().SetClock(late)
	sc.Endpoint().SetClock(late)
	if err := sc.SecureLogin(ctx, "pw-alice"); !errors.Is(err, core.ErrLoginRejected) || !strings.Contains(err.Error(), proto.ErrBadSid) {
		t.Fatalf("secureLogin with an expired sid = %v, want %s", err, proto.ErrBadSid)
	}
	if h.brSec.PendingSids() != 0 {
		t.Fatal("broker kept the expired sid")
	}
	h.join(sc, "pw-alice")
}

func TestPlainLoginRejectedWhenSecureRequired(t *testing.T) {
	h := newSecureHarness(t, true)
	sc := h.secureClient("alice")
	ctx := testCtx(t)
	if err := sc.Connect(ctx, h.br.PeerID()); err != nil {
		t.Fatal(err)
	}
	if err := sc.Login(ctx, "pw-alice"); err == nil {
		t.Fatal("plaintext login accepted by secure-only broker")
	}
}

func TestSecureLoginPasswordNeverInClear(t *testing.T) {
	h := newSecureHarness(t, true)
	// The eavesdropper's capture is mutex-guarded: taps fire from
	// network goroutines concurrently with the test's assertions.
	eve := attack.NewEavesdropper(h.net)
	sc := h.secureClient("alice")
	h.join(sc, "pw-alice")
	if eve.SawString("pw-alice") {
		t.Fatal("password appeared in clear on the wire during secureLogin")
	}
}

func TestPipeAdvertisementsSignedAfterLogin(t *testing.T) {
	h := newSecureHarness(t, true)
	sc := h.secureClient("alice")
	h.join(sc, "pw-alice")
	// The broker's index must hold a signed, trusted pipe advertisement.
	recs := h.br.Cache().Find("PipeAdvertisement", nil)
	if len(recs) == 0 {
		t.Fatal("broker has no pipe advertisements")
	}
	trust, _ := h.dep.TrustStore()
	res, err := xdsig.VerifyTrusted(recs[0].Doc, trust, time.Now())
	if err != nil {
		t.Fatalf("published pipe advertisement not verifiable: %v", err)
	}
	if res.Signer.Subject != sc.PeerID() {
		t.Fatal("advertisement signed by someone else")
	}
}

func TestSecureMsgPeer(t *testing.T) {
	h := newSecureHarness(t, true)
	alice := h.secureClient("alice")
	bob := h.secureClient("bob")
	h.join(alice, "pw-alice")
	h.join(bob, "pw-bob")
	bobEvents := events.NewCollector(bob.Bus())

	ctx := testCtx(t)
	if err := alice.SecureMsgPeer(ctx, bob.PeerID(), "math", "confidential hello"); err != nil {
		t.Fatalf("SecureMsgPeer: %v", err)
	}
	e, ok := bobEvents.WaitFor(events.SecureMessage, 5*time.Second)
	if !ok {
		t.Fatal("no SecureMessage event")
	}
	if string(e.Data) != "confidential hello" {
		t.Fatalf("body = %q", e.Data)
	}
	if e.Attr("authenticated") != "true" {
		t.Fatal("message not authenticated")
	}
	if e.Attr("user") != "alice" {
		t.Fatalf("sender user = %q", e.Attr("user"))
	}
	if e.From != alice.PeerID() {
		t.Fatalf("sender = %q", e.From)
	}
}

func TestSecureMsgPeerConfidentialOnWire(t *testing.T) {
	h := newSecureHarness(t, true)
	alice := h.secureClient("alice")
	bob := h.secureClient("bob")
	h.join(alice, "pw-alice")
	h.join(bob, "pw-bob")

	eve := attack.NewEavesdropper(h.net)
	ctx := testCtx(t)
	secret := "eyes-only-payload-marker"
	if err := alice.SecureMsgPeer(ctx, bob.PeerID(), "math", secret); err != nil {
		t.Fatal(err)
	}
	if eve.SawString(secret) {
		t.Fatal("secure message payload visible on the wire")
	}
}

func TestSecureMsgPeerGroup(t *testing.T) {
	h := newSecureHarness(t, true)
	h.db.Register("carol", "pw-carol", "math")
	alice := h.secureClient("alice")
	bob := h.secureClient("bob")
	carol := h.secureClient("carol")
	h.join(alice, "pw-alice")
	h.join(bob, "pw-bob")
	h.join(carol, "pw-carol")
	bobEvents := events.NewCollector(bob.Bus())
	carolEvents := events.NewCollector(carol.Bus())

	ctx := testCtx(t)
	sent, err := alice.SecureMsgPeerGroup(ctx, "math", "team update")
	if err != nil {
		t.Fatalf("SecureMsgPeerGroup: %v", err)
	}
	if sent != 2 {
		t.Fatalf("sent = %d, want 2", sent)
	}
	if _, ok := bobEvents.WaitFor(events.SecureMessage, 5*time.Second); !ok {
		t.Fatal("bob missed the group message")
	}
	if _, ok := carolEvents.WaitFor(events.SecureMessage, 5*time.Second); !ok {
		t.Fatal("carol missed the group message")
	}
}

// TestSecureMsgPeerGroupSendsSlices: a direct group fan-out puts one
// ModeSlice frame per member on the wire — that member's wrap alone,
// addressed to its key — and nothing that carries the others'. Grown from
// two members to seven, what each member is sent grows by the inclusion
// proof's hashes and nothing else: O(N) bytes across a round, where the
// full wire sent to every member would be O(N²).
func TestSecureMsgPeerGroupSendsSlices(t *testing.T) {
	h := newSecureHarness(t, true)
	alice := h.secureClient("alice")
	h.join(alice, "pw-alice")
	var members []*core.SecureClient
	var got []*events.Collector
	// round fans a message out to n members and returns, over what each
	// was sent, the most bytes beside the proof and the longest proof.
	round := func(n int) (base, proof int) {
		t.Helper()
		text := fmt.Sprintf("round of %d", n) // one length for every n below
		for len(members) < n {
			name := fmt.Sprintf("m%d", len(members))
			h.db.Register(name, "pw-"+name, "math")
			m := h.secureClient(name)
			h.join(m, "pw-"+name)
			members = append(members, m)
			got = append(got, events.NewCollector(m.Bus()))
		}
		eve := attack.NewEavesdropper(h.net)
		if sent, err := alice.SecureMsgPeerGroup(testCtx(t), "math", text); err != nil || sent != n {
			t.Fatalf("round of %d: sent %d, %v", n, sent, err)
		}
		for i, m := range members {
			if !secureDelivered(got[i], text) {
				t.Fatalf("round of %d: member %d missed it", n, i)
			}
			if mode := delivered(got[i], text)[0].Attr("mode"); mode != core.ModeSlice.String() {
				t.Fatalf("round of %d: member %d was sent a %s", n, i, mode)
			}
			var wires [][]byte
			for _, frame := range eve.FramesTo(simnet.NodeID(m.PeerID())) {
				if f, err := endpoint.ParseFrame(frame); err == nil {
					if w, ok := f.Msg.Get(proto.ElemEnvelope); ok {
						wires = append(wires, w)
					}
				}
			}
			if len(wires) != 1 || core.Mode(wires[0][0]) != core.ModeSlice {
				t.Fatalf("round of %d: member %d was sent %d secure wires, want one slice", n, i, len(wires))
			}
			// One wrap: count, leaf index, the round's ephemeral share, the
			// member's fingerprint and its wrap, the proof, then the GCM nonce.
			w := wires[0]
			fp, err := m.Identity().Keys.Public().Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			const fpAt = 1 + 4 + 4 + keys.ShareSize
			at := fpAt + 32 + keys.WrapSize
			hashes := int(w[at])
			at += 1 + 32*hashes
			if int(binary.BigEndian.Uint32(w[1:])) != n || !bytes.Equal(w[fpAt:fpAt+32], fp[:]) || len(w) <= at+keys.AEADNonceSize {
				t.Fatalf("round of %d: member %d's wire is not one leaf addressed to it", n, i)
			}
			base, proof = max(base, len(w)-32*hashes), max(proof, hashes)
		}
		return base, proof
	}
	small, _ := round(2)
	large, proof := round(7)
	// The header's fields are of fixed size but for the names, which are
	// alice's and the group's in both rounds: their blocks are the same size.
	if large != small || proof > 3 {
		t.Fatalf("a member of 7 was sent %d bytes beside a proof of %d hashes, a member of 2 %d: want the same bytes and at most ceil(log2 7) = 3 hashes", large, proof, small)
	}
}

// TestFullRoundPushedToMemberRefused: no recipient surface opens a full
// round. Pushed onto a member's group pipe, the relay's upload format
// raises one security alert and delivers nothing.
func TestFullRoundPushedToMemberRefused(t *testing.T) {
	h := newSecureHarness(t, true)
	bob := h.secureClient("bob")
	h.join(bob, "pw-bob")
	atBob := events.NewCollector(bob.Bus())
	kp, err := keys.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	sender, err := keys.CBID(kp.Public())
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.SealGroupDetached(kp, sender, "math", []byte("the whole round"), []*keys.PublicKey{bob.Identity().Keys.Public()})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := attack.NewRawNode(h.net, "attacker-node")
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.Replay(simnet.NodeID(bob.PeerID()), attack.SpoofedPipeEnvelope(sender, bob.PeerID(), "math", d.Wire())); err != nil {
		t.Fatal(err)
	}
	if e, ok := atBob.WaitFor(events.SecurityAlert, 5*time.Second); !ok || !strings.Contains(e.Payload["reason"], core.ErrEnvelope.Error()) {
		t.Fatalf("full round raised %+v (%v), want an alert: %v", e, ok, core.ErrEnvelope)
	}
	time.Sleep(50 * time.Millisecond) // a second alert, or a message, would be in flight no longer
	if a, m := len(atBob.OfType(events.SecurityAlert)), len(atBob.OfType(events.SecureMessage)); a != 1 || m != 0 {
		t.Fatalf("full round raised %d alerts and %d messages, want 1 and 0", a, m)
	}
}

func TestBrokerRejectsUnsignedAdvWhenRequired(t *testing.T) {
	h := newSecureHarness(t, true)
	alice := h.secureClient("alice")
	h.join(alice, "pw-alice")
	ctx := testCtx(t)
	// Bypass the signer: publish a raw unsigned document.
	pres := presenceAdv(alice.PeerID(), "math")
	if err := alice.PublishAdvDoc(ctx, pres); err == nil {
		t.Fatal("broker accepted an unsigned advertisement")
	}
}

func TestBrokerRejectsForeignSignedAdv(t *testing.T) {
	// Mallory (validly logged in) signs an advertisement describing
	// alice's peer ID: ownership check must reject it.
	h := newSecureHarness(t, true)
	h.db.Register("mallory", "pw-m", "math")
	alice := h.secureClient("alice")
	mallory := h.secureClient("mallory")
	h.join(alice, "pw-alice")
	h.join(mallory, "pw-m")

	ctx := testCtx(t)
	forged := presenceAdv(alice.PeerID(), "math") // claims to be alice
	mID := mallory.Identity()
	if err := xdsig.Sign(forged, mID.Keys, mID.Credential, h.brCred); err != nil {
		t.Fatal(err)
	}
	if err := mallory.PublishAdvDoc(ctx, forged); err == nil {
		t.Fatal("broker propagated an advertisement signed by a non-owner")
	}
}

func TestSecureMsgRejectsUnsignedPipeAdv(t *testing.T) {
	// Without signed-adv enforcement at the broker, a client may still
	// receive an unsigned pipe advertisement; secureMsgPeer must refuse
	// to use it (§4.3.1 step 2).
	h := newSecureHarness(t, false)
	alice := h.secureClient("alice")
	bob := h.secureClient("bob")
	h.join(alice, "pw-alice")
	h.join(bob, "pw-bob")

	// Poison alice's cache with an unsigned pipe adv for bob — once the
	// broker's push of bob's signed one has landed there. A push still in
	// flight would overwrite the poison after the fact.
	ctx := testCtx(t)
	waituntil.Must(t, 5*time.Second, func() bool {
		_, err := alice.Cache().Lookup(advert.TypePipe, advert.GroupPipeID(bob.PeerID(), "math"))
		return err == nil
	}, "the broker never pushed bob's pipe advertisement to alice")
	pipeAdv, _, err := alice.LookupPipe(ctx, bob.PeerID(), "math")
	if err != nil {
		t.Fatal(err)
	}
	unsignedDoc, err := pipeAdv.Document()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Cache().Put(unsignedDoc); err != nil {
		t.Fatal(err)
	}
	alerts := events.NewCollector(alice.Bus())
	if err := alice.SecureMsgPeer(ctx, bob.PeerID(), "math", "x"); err == nil {
		t.Fatal("secureMsgPeer used an unsigned pipe advertisement")
	}
	if _, ok := alerts.WaitFor(events.SecurityAlert, 5*time.Second); !ok {
		t.Fatal("no security alert for invalid advertisement")
	}
}

// TestForgedSenderAdvertisementRefusedAtOnce: bob's cache holds a copy of
// alice's signed pipe advertisement with one bit of its signature
// flipped, as anyone who reaches his client service can push him. A
// message from alice is refused with one SecurityAlert after ONE verdict
// on that copy, while bob's pump waits on nothing else; the refused copy
// leaves his cache with it, so alice's next message, whose lookup asks
// the broker, opens.
func TestForgedSenderAdvertisementRefusedAtOnce(t *testing.T) {
	h := newSecureHarness(t, true)
	alice := h.secureClient("alice", core.WithMode(core.ModeFull))
	bob := h.secureClient("bob")
	h.join(bob, "pw-bob")
	h.join(alice, "pw-alice")
	alicePipe := advert.GroupPipeID(alice.PeerID(), "math")
	waituntil.Must(t, 5*time.Second, func() bool {
		_, err := bob.Cache().Lookup(advert.TypePipe, alicePipe)
		return err == nil
	}, "the broker never pushed alice's pipe advertisement to bob")
	rec, err := bob.Cache().Lookup(advert.TypePipe, alicePipe)
	if err != nil {
		t.Fatal(err)
	}
	forged := bytes.Clone(rec.Doc.Canonical())
	at := bytes.Index(forged, []byte("<SignatureValue>")) + len("<SignatureValue>")
	forged[at] ^= 1
	if _, err := bob.Cache().PutCanonical(forged); err != nil {
		t.Fatal(err)
	}
	atBob := events.NewCollector(bob.Bus())
	_, before := bob.VerifyCache().Stats()
	start := time.Now()
	if err := alice.SecureMsgPeer(testCtx(t), bob.PeerID(), "math", "from alice"); err != nil {
		t.Fatal(err)
	}
	alert, ok := atBob.WaitFor(events.SecurityAlert, 5*time.Second)
	if !ok {
		t.Fatal("no security alert for the forged sender advertisement")
	}
	took := time.Since(start)
	if alert.From != alice.PeerID() || !strings.Contains(alert.Payload["reason"], core.ErrSenderUnknown.Error()) {
		t.Fatalf("alert %v against %s, want %v against alice", alert.Payload, alert.From, core.ErrSenderUnknown)
	}
	if _, after := bob.VerifyCache().Stats(); after-before != 1 {
		t.Fatalf("bob verified the forged copy %d times, want 1", after-before)
	}
	if n := len(atBob.OfType(events.SecureMessage)); n != 0 {
		t.Fatalf("%d messages delivered under a forged advertisement", n)
	}
	t.Logf("refused %v after the send", took)

	if err := alice.SecureMsgPeer(testCtx(t), bob.PeerID(), "math", "from alice again"); err != nil {
		t.Fatal(err)
	}
	e, ok := atBob.WaitFor(events.SecureMessage, 5*time.Second)
	if !ok || string(e.Data) != "from alice again" || e.From != alice.PeerID() {
		t.Fatalf("alice's second message: delivered %v (%+v), want it opened from alice", ok, e)
	}
	if n := len(atBob.OfType(events.SecurityAlert)); n != 1 {
		t.Fatalf("%d alerts after the second message, want still 1", n)
	}
}

// TestModeAblation: ModeFull, the paper's E_PK(m, S_SK(m)), is the one
// envelope a sender can select; its delivery always names an
// authenticated sender.
func TestModeAblation(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeFull} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			h := newSecureHarness(t, true)
			alice := h.secureClient("alice", core.WithMode(mode))
			bob := h.secureClient("bob")
			h.join(alice, "pw-alice")
			h.join(bob, "pw-bob")
			bobEvents := events.NewCollector(bob.Bus())
			ctx := testCtx(t)
			if err := alice.SecureMsgPeer(ctx, bob.PeerID(), "math", "payload"); err != nil {
				t.Fatal(err)
			}
			e, ok := bobEvents.WaitFor(events.SecureMessage, 5*time.Second)
			if !ok {
				t.Fatal("message not delivered")
			}
			if e.Attr("mode") != mode.String() || e.Attr("authenticated") != "true" {
				t.Fatalf("delivered as %q, authenticated = %q (mode %s)", e.Attr("mode"), e.Attr("authenticated"), mode)
			}
		})
	}
}

func TestNewSecureClientRequiresKeys(t *testing.T) {
	h := newSecureHarness(t, true)
	cl, err := client.New(h.net, membership.NewNone(), "plain-user")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	trust, _ := h.dep.TrustStore()
	if _, err := core.NewSecureClient(cl, trust); err == nil {
		t.Fatal("NewSecureClient accepted a keyless identity")
	}
}

// TestSecureLoginCertifiesAgreementKey: the login request carries the
// X25519 agreement key derived from the client's RSA key, under the
// request's signature, and the credential the broker issues certifies it
// in its share field — without a private-key operation beyond the one
// issuing signature. A re-join finds the derived key unchanged, so the
// broker answers it with the credential it already signed, and signs
// nothing.
func TestSecureLoginCertifiesAgreementKey(t *testing.T) {
	h := newSecureHarness(t, true)
	alice := h.secureClient("alice")
	signed := h.brKP.SignCalls()
	h.join(alice, "pw-alice")
	if got := h.brKP.SignCalls() - signed; got != 1 {
		t.Fatalf("a first join cost the broker %d signatures, want 1 (the issuance)", got)
	}
	issued := alice.Identity().Credential
	want, _ := alice.Identity().Keys.Public().AgreementShare()
	if got, ok := issued.Key.AgreementShare(); !ok || got != want {
		t.Fatalf("issued credential certifies share %x (%v), want the derived %x", got, ok, want)
	}
	raw, err := issued.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, want[:]) {
		t.Fatal("issued credential's bytes carry no share field")
	}
	ctx := testCtx(t)
	if err := alice.Logout(ctx); err != nil {
		t.Fatal(err)
	}
	signed = h.brKP.SignCalls()
	h.join(alice, "pw-alice")
	if got := h.brKP.SignCalls() - signed; got != 0 || !alice.Identity().Credential.Equal(issued) {
		t.Fatalf("re-join cost the broker %d signatures (reused: %v), want 0 and the same credential", got, alice.Identity().Credential.Equal(issued))
	}
}

// TestRejoinCostsBrokerNoPrivateKeyOperation: secureConnection proves the
// broker with one X25519 on its agreement key, not a signature, and a
// re-join inside the credential's half validity is answered with the
// credential already issued: around a re-join the broker performs no
// private-key operation and one agreement, and the joiner one private-key
// operation, its login's signature.
func TestRejoinCostsBrokerNoPrivateKeyOperation(t *testing.T) {
	h := newSecureHarness(t, true)
	alice := h.secureClient("alice")
	h.join(alice, "pw-alice")
	if err := alice.Logout(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	aliceKP := alice.Identity().Keys
	signed, agreed, aliceSigned := h.brKP.SignCalls(), h.brKP.AgreeCalls(), aliceKP.SignCalls()
	h.join(alice, "pw-alice")
	if got := h.brKP.SignCalls() - signed; got != 0 {
		t.Fatalf("a re-join cost the broker %d private-key operations, want 0", got)
	}
	if got := h.brKP.AgreeCalls() - agreed; got != 1 {
		t.Fatalf("a re-join cost the broker %d X25519 operations on its agreement key, want 1 (the connect)", got)
	}
	if got := aliceKP.SignCalls() - aliceSigned; got != 1 {
		t.Fatalf("a re-join cost the joiner %d private-key operations, want 1 (the login)", got)
	}
}

// TestPushedPipeAdvertisementCarriesNoName: a group pipe's advertisement
// names its peer and its group in fields of their own, and no free-text
// Name repeats them. A tap sees the advertisement the broker pushes to a
// resident without one.
func TestPushedPipeAdvertisementCarriesNoName(t *testing.T) {
	h := newSecureHarness(t, true)
	bob := h.secureClient("bob")
	h.join(bob, "pw-bob")
	tap := attack.NewEavesdropper(h.net)
	alice := h.secureClient("alice")
	h.join(alice, "pw-alice")
	waituntil.Must(t, 5*time.Second, func() bool {
		_, err := bob.Cache().Lookup(advert.TypePipe, advert.GroupPipeID(alice.PeerID(), "math"))
		return err == nil
	}, "bob never received alice's pipe advertisement")
	pushed := 0
	for _, frame := range tap.FramesTo(simnet.NodeID(bob.PeerID())) {
		f, err := endpoint.ParseFrame(frame)
		if err != nil {
			continue
		}
		if op, _ := f.Msg.GetString(proto.ElemOp); op != proto.OpAdvPush {
			continue
		}
		raw, _ := f.Msg.Get(proto.ElemAdv)
		if bytes.Contains(raw, []byte("<"+advert.TypePipe)) {
			pushed++
			if bytes.Contains(raw, []byte("<Name>")) {
				t.Fatalf("pushed pipe advertisement carries a Name: %s", raw)
			}
		}
	}
	if pushed == 0 {
		t.Fatal("the tap saw no pipe advertisement pushed to bob")
	}
}
