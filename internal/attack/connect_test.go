package attack_test

// secureConnection negatives. The broker proves itself with the X25519 of
// the client's fresh challenge E and its agreement key, which its share
// statement binds to its certified key: a tag derived from that agreement,
// and beside it the key the login is sealed under. What an adversary can
// try on it: answer without the agreement key, replay an answer made for
// another client, make the broker agree with a share of small order, and
// spend a session identifier read off the wire.

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
)

// connectAnswer is a copy of the first secureConnection answer eve saw on
// its way to peer.
func connectAnswer(t *testing.T, eve *attack.Eavesdropper, peer keys.PeerID) *endpoint.Message {
	t.Helper()
	for _, frame := range eve.FramesTo(simnet.NodeID(peer)) {
		f, err := endpoint.ParseFrame(frame)
		if err != nil || !f.Msg.Has(proto.ElemTag) {
			continue
		}
		answer := endpoint.NewMessage()
		for _, e := range f.Msg.Elements {
			answer.Add(e.Name, bytes.Clone(e.Data))
		}
		return answer
	}
	t.Fatal("no secureConnection answer captured")
	return nil
}

// impostor is a broker node at an address of its own, under the real
// broker's name, that answers secureConnection with connect and counts
// the secureLogin calls that reach it.
type impostor struct {
	*broker.Broker
	logins atomic.Int32
}

func newImpostor(t *testing.T, s *secureStack, connect broker.OpHandler) *impostor {
	t.Helper()
	b, err := broker.New(broker.Config{Name: "broker-1", PeerID: "urn:jxta:impostor", Net: s.net, DB: broker.LocalDB(s.db)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	imp := &impostor{Broker: b}
	b.RegisterOp(proto.OpSecureConnect, connect)
	b.RegisterOp(proto.OpSecureLogin, func(broker.Caller, *endpoint.Message) *endpoint.Message {
		imp.logins.Add(1)
		return proto.Fail(proto.ErrBadRequest)
	})
	return imp
}

// refusedBeforeLogin has bob run secureConnection against imp and then
// try to log in: the connect must end in ErrBrokerNotLegit, rejected for
// a reason that contains want, and the login must stop before anything is
// sealed — no broker credential is held — so that no login reaches imp.
func refusedBeforeLogin(t *testing.T, bob *core.SecureClient, imp *impostor, want string) {
	t.Helper()
	rejected := events.NewCollector(bob.Bus())
	if err := bob.SecureConnection(testCtx(t), imp.PeerID()); !errors.Is(err, core.ErrBrokerNotLegit) {
		t.Fatalf("secureConnection: err = %v, want ErrBrokerNotLegit", err)
	}
	if e, ok := rejected.WaitFor(events.BrokerRejected, 5*time.Second); !ok || !strings.Contains(e.Attr("reason"), want) {
		t.Fatalf("rejected as %v, want for %q", e.Attrs(), want)
	}
	if bob.Sid() != "" {
		t.Fatal("a session identifier was kept from a refused answer")
	}
	if err := bob.SecureLogin(testCtx(t), "bob-secret-pw"); !errors.Is(err, core.ErrNoCredential) {
		t.Fatalf("secureLogin after the refusal: err = %v, want ErrNoCredential (nothing sealed)", err)
	}
	if n := imp.logins.Load(); n != 0 {
		t.Fatalf("%d logins reached the impostor", n)
	}
}

// (a) An impersonator holds everything the broker's answer carries but
// the agreement key: the credential, the share and the share statement,
// replayed from a tap, all verify. Its tag, derived as well as it can —
// with an agreement key of its own, for the broker's share — is not the
// one bob derives, and bob refuses it.
func TestImpersonatorReplayingShareStatementRefused(t *testing.T) {
	s := newSecureStack(t)
	eve := attack.NewEavesdropper(s.net)
	alice := s.connected(t, "alice")
	real := connectAnswer(t, eve, alice.PeerID())
	own, err := keys.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	imp := newImpostor(t, s, func(_ broker.Caller, msg *endpoint.Message) *endpoint.Message {
		e, _ := msg.Get(proto.ElemChallenge)
		share, _ := real.Get(proto.ElemShare)
		secret, err := own.Agree(e)
		if err != nil {
			return proto.Fail(proto.ErrBadRequest)
		}
		tag, _ := core.ConnectKeys(secret, e, share, s.br.PeerID(), "deadbeef")
		cred, _ := real.Get(proto.ElemCred)
		sig, _ := real.Get(proto.ElemSig)
		return proto.OK().AddString(proto.ElemSid, "deadbeef").Add(proto.ElemTag, tag[:]).
			Add(proto.ElemCred, cred).Add(proto.ElemShare, share).Add(proto.ElemSig, sig)
	})
	refusedBeforeLogin(t, s.client(t, "bob"), imp, "does not hold its agreement key")
}

// (b) A tag answers for one challenge: alice's whole answer — session
// identifier, tag, credential, share and statement, every byte the broker
// sent — replayed to bob's connect is refused, since bob's challenge is
// not alice's. Alice, whose answer it was, still logs in.
func TestConnectTagReplayedToAnotherClientRefused(t *testing.T) {
	s := newSecureStack(t)
	eve := attack.NewEavesdropper(s.net)
	alice := s.connected(t, "alice")
	captured := connectAnswer(t, eve, alice.PeerID())
	imp := newImpostor(t, s, func(broker.Caller, *endpoint.Message) *endpoint.Message {
		answer := endpoint.NewMessage()
		for _, e := range captured.Elements {
			answer.Add(e.Name, bytes.Clone(e.Data))
		}
		return answer
	})
	refusedBeforeLogin(t, s.client(t, "bob"), imp, "does not hold its agreement key")
	if err := alice.SecureLogin(testCtx(t), "alice-secret-pw"); err != nil {
		t.Fatalf("alice's login: %v", err)
	}
}

// (c) An on-path adversary that swaps bob's challenge for a share of
// small order would have the broker derive its tag and login key from the
// all-zero output, which anyone computes. The broker refuses every
// encoding of one — each with its top bit set too, which X25519 ignores —
// before it agrees, issues a session identifier or signs anything, and
// bob, answered with the refusal, treats the broker as not legitimate.
func TestLowOrderChallengeRefusedBeforeAgreement(t *testing.T) {
	s := newSecureStack(t)
	order8 := []byte{0xe0, 0xeb, 0x7a, 0x7c, 0x3b, 0x41, 0xb8, 0xae, 0x16, 0x56, 0xe3, 0xfa, 0xf1, 0x9f, 0xc4, 0x6a,
		0xda, 0x09, 0x8d, 0xeb, 0x9c, 0x32, 0xb1, 0xfd, 0x86, 0x62, 0x05, 0x16, 0x5f, 0x49, 0xb8, 0x00}
	pMinus1 := bytes.Repeat([]byte{0xff}, keys.ShareSize)
	pMinus1[0], pMinus1[keys.ShareSize-1] = 0xec, 0x7f
	var shares [][]byte
	for _, low := range [][]byte{make([]byte, keys.ShareSize), append([]byte{1}, make([]byte, keys.ShareSize-1)...), order8, pMinus1} {
		high := bytes.Clone(low)
		high[keys.ShareSize-1] |= 0x80
		shares = append(shares, low, high)
	}
	var swapped []byte
	var imp *impostor
	imp = newImpostor(t, s, func(broker.Caller, *endpoint.Message) *endpoint.Message {
		answer, err := imp.Endpoint().Request(testCtx(t), s.br.PeerID(), proto.BrokerService, endpoint.NewMessage().
			AddString(proto.ElemOp, proto.OpSecureConnect).Add(proto.ElemChallenge, swapped), 0)
		if err != nil {
			return proto.Fail(proto.ErrBadRequest)
		}
		return answer
	})
	bob := s.client(t, "bob")
	for _, swapped = range shares {
		pending, agreed, signed := s.brSec.PendingSids(), s.brKP.AgreeCalls(), s.brKP.SignCalls()
		refusedBeforeLogin(t, bob, imp, "no secure connection response")
		if got := s.brSec.PendingSids(); got != pending {
			t.Fatalf("challenge %x: session identifiers pending %d -> %d", swapped, pending, got)
		}
		if n := s.brKP.AgreeCalls() - agreed; n != 0 {
			t.Fatalf("challenge %x: the broker performed %d X25519 operations", swapped, n)
		}
		if n := s.brKP.SignCalls() - signed; n != 0 {
			t.Fatalf("challenge %x: the broker signed %d times", swapped, n)
		}
	}
}

// A session identifier travels in clear — in the secureConnection answer
// and as the handle in front of the sealed login — and a tap reads it.
// Reading it does not make it spendable: a login must open under the key
// the connect that issued it agreed, which only the client that chose
// that connect's challenge derives. mallory reads alice's session
// identifier off the wire and presents it in a login of her own — signed
// by her, for her account — sealed under the key of her own connect with
// alice's identifier as the handle, then with her own, then sealed to the
// broker's agreement key as logins once were. Each is refused, no
// identifier is spent, and alice then logs in with hers.
func TestSniffedSidCannotBeSpent(t *testing.T) {
	s := newSecureStack(t)
	eve := attack.NewEavesdropper(s.net)
	alice := s.connected(t, "alice")
	sniffed, _ := connectAnswer(t, eve, alice.PeerID()).GetString(proto.ElemSid)
	if sniffed == "" || sniffed != alice.Sid() {
		t.Fatalf("the tap read %q, alice holds %q", sniffed, alice.Sid())
	}
	mallory := s.client(t, "mallory")
	own := rawConnect(t, mallory, s.br.PeerID())
	req := loginRequest(t, "mallory", "mallory-pw", mallory.PeerID(), mallory.Identity().Keys, sniffed, s.br.PeerID())
	toBroker, err := s.brKP.Public().Encrypt(req)
	if err != nil {
		t.Fatal(err)
	}
	pending := s.brSec.PendingSids()
	for _, tc := range []struct {
		name, handle, token string
		sealed              []byte
	}{
		{"under mallory's login key, alice's session identifier as the handle", sniffed, proto.ErrBadRequest, sealLogin(t, own.key, req)},
		{"under mallory's login key, her own session identifier as the handle", own.sid, proto.ErrBadSid, sealLogin(t, own.key, req)},
		{"sealed to the broker's agreement key", sniffed, proto.ErrBadRequest, toBroker.Bytes()},
	} {
		resp, err := own.send(t, tc.handle, tc.sealed)
		if !refusedWith(err, tc.token) {
			t.Fatalf("%s: err = %v, want the %q refusal", tc.name, err, tc.token)
		}
		if resp != nil && resp.Has(proto.ElemCred) {
			t.Fatalf("%s: answered with a credential", tc.name)
		}
		if got := s.brSec.PendingSids(); got != pending {
			t.Fatalf("%s: session identifiers pending %d -> %d", tc.name, pending, got)
		}
	}
	if err := alice.SecureLogin(testCtx(t), "alice-secret-pw"); err != nil {
		t.Fatalf("alice's login with the session identifier mallory read: %v", err)
	}
}
