// Negatives for the signed-request form every login, heartbeat, renewal
// and database query is one of: a request is read only as the kind it was
// signed as, only whole, only by the verifier it was signed for, and a
// renewal — whose nonce is all that makes it single-use — only once.
package attack_test

import (
	"bytes"
	"errors"
	"testing"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
)

// capturedCall is a copy of the first op call eve saw on its way to
// broker, every element as it was.
func capturedCall(t *testing.T, eve *attack.Eavesdropper, broker keys.PeerID, op string) *endpoint.Message {
	t.Helper()
	for _, frame := range eve.FramesTo(simnet.NodeID(broker)) {
		f, err := endpoint.ParseFrame(frame)
		if err != nil {
			continue
		}
		if got, _ := f.Msg.GetString(proto.ElemOp); got == op {
			call := endpoint.NewMessage()
			for _, e := range f.Msg.Elements {
				call.Add(e.Name, bytes.Clone(e.Data))
			}
			return call
		}
	}
	t.Fatalf("no %s call captured", op)
	return nil
}

// callRequest sends req as op through sc's connection.
func callRequest(t *testing.T, sc *core.SecureClient, op string, req []byte) error {
	t.Helper()
	_, err := sc.Call(testCtx(t), endpoint.NewMessage().AddString(proto.ElemOp, op).Add(proto.ElemBody, req))
	return err
}

// refusedWith reports whether err is the broker's refusal token.
func refusedWith(err error, token string) bool {
	var opErr *client.OpError
	return errors.As(err, &opErr) && opErr.Token == token
}

// A renewal captured on a tap and sent again inside the time window is
// refused: its nonce is in the broker's table. The broker signs no second
// credential for it.
func TestReplayedRenewRefused(t *testing.T) {
	s := newSecureStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	eve := attack.NewEavesdropper(s.net)
	if err := alice.SecureRenewCredential(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	renew := capturedCall(t, eve, s.br.PeerID(), core.OpSecureRenew)
	signed := s.brKP.SignCalls()
	if _, err := alice.Call(testCtx(t), renew); !refusedWith(err, proto.ErrBadRequest) {
		t.Fatalf("replayed renewal: err = %v, want the %q refusal", err, proto.ErrBadRequest)
	}
	if n := s.brKP.SignCalls() - signed; n != 0 {
		t.Fatalf("the broker signed %d times for a replayed renewal", n)
	}
}

// One kind's bytes are never read as another's: a genuine heartbeat sent
// as a renewal, and a database answer — signed for the broker, as every
// answer is, and in clear on the broker–database link — sealed under a
// connect's login key as a login. Both are refused at the layout, before anything is
// spent: no signature, and the session identifier presented with nothing
// is still pending.
func TestRequestOfAnotherKindRefused(t *testing.T) {
	s := newLeaseStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	eve := attack.NewEavesdropper(s.net)
	if err := alice.SecureHeartbeat(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	heartbeat, _ := capturedCall(t, eve, s.br.PeerID(), core.OpHeartbeat).Get(proto.ElemBody)
	signed := s.brKP.SignCalls()
	if err := callRequest(t, alice, core.OpSecureRenew, heartbeat); !refusedWith(err, proto.ErrBadRequest) {
		t.Fatalf("a heartbeat as a renewal: err = %v, want the %q refusal", err, proto.ErrBadRequest)
	}
	if n := s.brKP.SignCalls() - signed; n != 0 {
		t.Fatalf("the broker signed %d times for a heartbeat sent as a renewal", n)
	}

	mallory := rawConnect(t, s.client(t, "mallory"), s.br.PeerID())
	pending := s.brSec.PendingSids()
	db, err := keys.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	nonce := proto.NewNonce()
	answer, err := proto.AppendRequest(nil, db, s.br.PeerID(), proto.KindAnswer, s.br.Now(), nonce, nil, []byte("math"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mallory.login(t, answer); !refusedWith(err, proto.ErrBadRequest) {
		t.Fatalf("a database answer as a login: err = %v, want the %q refusal", err, proto.ErrBadRequest)
	}
	if got := s.brSec.PendingSids(); got != pending {
		t.Fatalf("session identifiers pending %d -> %d: the refused login spent one", pending, got)
	}
}

// A request is read whole or not at all: a genuine renewal with one byte
// behind it is refused, and the same renewal without it is then answered
// — the refusal spent nothing of it, not even its nonce.
func TestRequestWithTrailingBytesRefused(t *testing.T) {
	s := newSecureStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	renew := renewalFor(t, alice, s.br.PeerID())
	signed := s.brKP.SignCalls()
	if err := callRequest(t, alice, core.OpSecureRenew, append(bytes.Clone(renew), 0)); !refusedWith(err, proto.ErrBadRequest) {
		t.Fatalf("a renewal with a trailing byte: err = %v, want the %q refusal", err, proto.ErrBadRequest)
	}
	if n := s.brKP.SignCalls() - signed; n != 0 {
		t.Fatalf("the broker signed %d times for a renewal with a trailing byte", n)
	}
	if err := callRequest(t, alice, core.OpSecureRenew, renew); err != nil {
		t.Fatalf("the same renewal, whole: %v", err)
	}
}

// A request is for the verifier it was signed for: alice's renewal,
// signed for broker-2, is refused by broker-1 — her credential, her key
// and the time all pass there — and the same renewal signed for broker-1
// is answered.
func TestRequestSignedForAnotherBrokerRefused(t *testing.T) {
	s := newSecureStack(t)
	other, err := s.dep.StartBroker(broker.Config{Name: "broker-2", Net: s.net, DB: broker.LocalDB(s.db), RequireSecureLogin: true},
		core.BrokerConfig{RequireSignedAdvs: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(other.Close)
	alice := s.join(t, "alice", "alice-secret-pw")
	signed := s.brKP.SignCalls()
	if err := callRequest(t, alice, core.OpSecureRenew, renewalFor(t, alice, other.Broker.PeerID())); !refusedWith(err, proto.ErrBadSignature) {
		t.Fatalf("a renewal signed for broker-2: err = %v, want the %q refusal", err, proto.ErrBadSignature)
	}
	if n := s.brKP.SignCalls() - signed; n != 0 {
		t.Fatalf("the broker signed %d times for a renewal signed for another broker", n)
	}
	if err := callRequest(t, alice, core.OpSecureRenew, renewalFor(t, alice, s.br.PeerID())); err != nil {
		t.Fatalf("the renewal signed for broker-1: %v", err)
	}
}

// renewalFor is a renewal as SecureRenewCredential builds it, by hand:
// sc's session credential, signed with sc's key for the verifier with ID
// audience.
func renewalFor(t *testing.T, sc *core.SecureClient, audience keys.PeerID) []byte {
	t.Helper()
	credRaw, err := sc.Identity().Credential.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	nonce := proto.NewNonce()
	req, err := proto.AppendRequest(nil, sc.Identity().Keys, audience, proto.KindRenew, sc.Now(), nonce, credRaw)
	if err != nil {
		t.Fatal(err)
	}
	return req
}
