// Key-transport negatives. Every envelope and the database request are
// sealed the one way a round's key is: ECIES to the X25519 agreement key
// the recipient's key carries, the wrap bound to the AEAD nonce the
// content is sealed under; the login request is sealed under the key its
// secureConnection agreed with the broker's agreement key. What an
// adversary can try on them: a broker re-sealing a login request it
// opened for another broker; an on-path swap of the broker's agreement
// key, which is not in its credential but under its share statement; a
// holder of one envelope's content key sealing other content behind its
// wrap.
package attack_test

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
)

// A login request is sealed for one broker and signed for it. A broker —
// administrator-certified, and turned — that opens one and seals it again
// under a key agreed with another broker logs nobody in there, even with a
// session identifier that broker handed out: mallory runs broker-2,
// connects to broker-1 for a session identifier and its login key and
// passes the identifier to alice as her own, and alice signs a request
// carrying it and seals it under the key of her connect to broker-2. The
// same request signed for broker-1 is what broker-1 would take.
func TestLoginRequestResealedToAnotherBrokerRefused(t *testing.T) {
	s := newSecureStack(t)
	evil, err := s.dep.StartBroker(broker.Config{Name: "broker-2", Net: s.net, DB: broker.LocalDB(s.db), RequireSecureLogin: true},
		core.BrokerConfig{RequireSignedAdvs: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(evil.Close)
	alice := s.client(t, "alice")
	aliceKP := alice.Identity().Keys
	mallory := s.client(t, "mallory")

	for _, tc := range []struct {
		name   string
		signee keys.PeerID // the broker alice signs her request for
		wantOK bool
	}{
		{"signed for broker-2, re-sealed to broker-1", evil.Broker.PeerID(), false},
		{"signed for broker-1", s.br.PeerID(), true},
	} {
		toBroker1 := rawConnect(t, mallory, s.br.PeerID())
		req := loginRequest(t, "alice", "alice-secret-pw", alice.PeerID(), aliceKP, toBroker1.sid, tc.signee)
		// What broker-2 receives is sealed under the key of alice's connect
		// to it; it opens the request, as it may, and seals it again under
		// the key of mallory's connect to broker-1.
		toBroker2 := rawConnect(t, alice, evil.Broker.PeerID())
		sealed := sealLogin(t, toBroker2.key, req)
		nonce, ct := sealed[:keys.AEADNonceSize], sealed[keys.AEADNonceSize:]
		opened, err := keys.AEADOpen(toBroker2.key[:], nonce, ct)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := keys.AEADOpen(toBroker1.key[:], nonce, ct); err == nil {
			t.Fatal("broker-1's login key opened a request sealed for broker-2")
		}
		signed := s.brKP.SignCalls()
		resp, err := toBroker1.login(t, opened)
		if tc.wantOK {
			if err != nil || !resp.Has(proto.ElemCred) {
				t.Fatalf("%s: (%v, %v), want a credential", tc.name, resp, err)
			}
			continue
		}
		var opErr *client.OpError
		if !errors.As(err, &opErr) || opErr.Token != proto.ErrBadSignature {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, proto.ErrBadSignature)
		}
		if resp != nil && resp.Has(proto.ElemCred) {
			t.Fatalf("%s: answered with a credential", tc.name)
		}
		if n := s.brKP.SignCalls() - signed; n != 0 {
			t.Fatalf("%s: broker-1 signed %d times for a refused login", tc.name, n)
		}
	}
}

// The broker's agreement key, which secureConnection's tag is derived
// with, rides its answer under its share statement. An answer whose share
// was swapped on the way, or whose statement names a share of small order
// or none at all, is refused like a broker that cannot prove itself: the
// client sends it no login. The answers come from one twin of the broker,
// which forwards the challenge to the broker, takes its session
// identifier and tag, hands it the login, and signs statements with the
// broker's key: only the share differs from case to case, and with the
// broker's own share the twin logs alice in.
func TestBrokerAgreementKeyUnderShareStatement(t *testing.T) {
	s := newSecureStack(t)
	credRaw, err := s.brSec.Credential().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	real, _ := s.brKP.Public().AgreementShare()
	swapped, err := keys.NewAgreementKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		signed, sent  []byte // the share the statement names, the one in the answer
		omitShareElem bool
		wantOK        bool
	}{
		{name: "the broker's share, signed", signed: real[:], sent: real[:], wantOK: true},
		{name: "share swapped after signing", signed: real[:], sent: swapped.Share()},
		{name: "share of small order, signed", signed: make([]byte, keys.ShareSize), sent: make([]byte, keys.ShareSize)},
		{name: "share of wrong length, signed", signed: real[:31], sent: real[:31]},
		{name: "no share", signed: nil, omitShareElem: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := broker.New(broker.Config{Name: "broker-1", PeerID: keys.PeerID("urn:jxta:twin-" + strconv.Itoa(len(tc.name))), Net: s.net,
				DB: broker.LocalDB(s.db)})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(b.Close)
			// forward hands the broker a copy of what the twin was sent.
			forward := func(msg *endpoint.Message) (*endpoint.Message, error) {
				call := endpoint.NewMessage()
				for _, e := range msg.Elements {
					call.Add(e.Name, bytes.Clone(e.Data))
				}
				return b.Endpoint().Request(testCtx(t), s.br.PeerID(), proto.BrokerService, call, 0)
			}
			b.RegisterOp(proto.OpSecureConnect, func(_ broker.Caller, msg *endpoint.Message) *endpoint.Message {
				answer, err := forward(msg)
				if err != nil {
					return proto.Fail(proto.ErrBadRequest)
				}
				sid, _ := answer.GetString(proto.ElemSid)
				tag, _ := answer.Get(proto.ElemTag)
				sig, _ := s.brKP.Sign(core.ShareStatement(s.br.PeerID(), tc.signed))
				resp := proto.OK().AddString(proto.ElemSid, sid).Add(proto.ElemTag, tag).Add(proto.ElemCred, credRaw).Add(proto.ElemSig, sig)
				if !tc.omitShareElem {
					resp.Add(proto.ElemShare, tc.sent)
				}
				return resp
			})
			b.RegisterOp(proto.OpSecureLogin, func(c broker.Caller, msg *endpoint.Message) *endpoint.Message {
				resp, err := forward(msg)
				if err != nil {
					return proto.Fail(proto.ErrBadRequest)
				}
				// What the broker logged in, the twin serves.
				if groups, _ := resp.GetString(proto.ElemGroups); resp.Has(proto.ElemCred) {
					b.RegisterPeer(c.ID, "alice", strings.Split(groups, ","))
				}
				return resp
			})
			sc := s.client(t, "alice")
			connErr := sc.SecureConnection(testCtx(t), b.PeerID())
			loginErr := sc.SecureLogin(testCtx(t), "alice-secret-pw")
			if tc.wantOK {
				if connErr != nil || loginErr != nil {
					t.Fatalf("secureConnection: %v, secureLogin: %v, want both to succeed", connErr, loginErr)
				}
				return
			}
			if !errors.Is(connErr, core.ErrBrokerNotLegit) {
				t.Fatalf("secureConnection: err = %v, want ErrBrokerNotLegit", connErr)
			}
			if loginErr == nil {
				t.Fatal("a login went to a broker whose agreement key was refused")
			}
		})
	}
}

// TestEnvelopeWrapSplicedUnderAnotherNonceRefused: alice sends bob two
// signed envelopes, each under a fresh key of hers. mallory holds what the
// first carries — its content key, which bob's application leaked, and so
// alice's signed block — and both wires as they crossed the network.
// Alice's block sealed again under a nonce of mallory's choosing behind
// the first envelope's share and wrap, and the second envelope's nonce and
// content behind the first's wrap, are wires bob's guard has never seen,
// under a share and a wrap bob's key unwraps; bob refuses both at the
// wrap, which is bound to the nonce alice sealed under, before any
// ciphertext is read — and raises each message once, as the message
// nobody sent.
func TestEnvelopeWrapSplicedUnderAnotherNonceRefused(t *testing.T) {
	s := newSecureStack(t)
	alice := s.join(t, "alice", "alice-secret-pw", core.WithMode(core.ModeFull))
	bob := s.join(t, "bob", "bob-secret-pw", core.WithReplayGuard(core.NewReplayGuard(time.Minute, 64)))
	eve := attack.NewEavesdropper(s.net)
	got := events.NewCollector(bob.Bus())
	say(t, alice, bob.PeerID(), got, "first")
	say(t, alice, bob.PeerID(), got, "second")
	wires := wiresTo(eve, bob.PeerID(), core.ModeFull)
	if len(wires) != 2 {
		t.Fatalf("%d envelopes to bob on the wire, want 2", len(wires))
	}
	first, second := wires[0], wires[1]
	const wrapEnd, nonceEnd = 1 + keys.ShareSize + keys.WrapSize, 1 + keys.EnvelopePrefix
	if bytes.Equal(first[1:1+keys.ShareSize], second[1:1+keys.ShareSize]) {
		t.Fatal("alice's two envelopes are under one key of hers, want a fresh one each")
	}
	cek, err := bob.Identity().Keys.UnwrapFrom(first[1:1+keys.ShareSize], first[1+keys.ShareSize:wrapEnd], first[wrapEnd:nonceEnd])
	if err != nil {
		t.Fatal(err)
	}
	block, err := keys.AEADOpen(cek[:], first[wrapEnd:nonceEnd], first[nonceEnd:])
	if err != nil {
		t.Fatal(err)
	}
	nonce, ct, err := keys.AEADSeal(cek[:], block)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := attack.NewRawNode(s.net, "mallory-node")
	if err != nil {
		t.Fatal(err)
	}
	for _, wire := range [][]byte{
		append(append(bytes.Clone(first[:wrapEnd]), nonce...), ct...), // alice's block under mallory's nonce
		append(bytes.Clone(first[:wrapEnd]), second[wrapEnd:]...),     // the second's content behind the first's wrap
	} {
		if err := raw.Replay(simnet.NodeID(bob.PeerID()), attack.SpoofedPipeEnvelope(alice.PeerID(), bob.PeerID(), "math", wire)); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range alerts(t, got, 2) {
		if !strings.HasSuffix(a.Attr("reason"), core.ErrNotRecipient.Error()) {
			t.Errorf("a spliced envelope refused as %v, want %v", a.Payload, core.ErrNotRecipient)
		}
	}
	if n, m := count(got, "first"), count(got, "second"); n != 1 || m != 1 {
		t.Fatalf("alice's messages were raised %d and %d times, want once each", n, m)
	}
}
