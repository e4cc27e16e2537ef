// Negatives for the signed-request form every login, heartbeat and
// database query is one of: a request is read only as the kind it was
// signed as, only whole, and only by the verifier it was signed for; and a
// credential is issued at login only, so a disabled user's credential
// lapses.
package attack_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/cred"
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

// heartbeatFor is a heartbeat as SecureHeartbeat builds it, by hand: sc's
// lease id and seq, signed with sc's key for the verifier with ID audience.
func heartbeatFor(t *testing.T, sc *core.SecureClient, audience keys.PeerID, seq uint64) []byte {
	t.Helper()
	lease, _ := sc.Lease()
	req, err := proto.AppendRequest(nil, sc.Identity().Keys, audience, proto.KindHeartbeat, sc.Now(), proto.NewNonce(),
		[]byte(lease), binary.BigEndian.AppendUint64(nil, seq))
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// signedForm is a signed request written by hand, of any kind byte and any
// fields — what proto.AppendRequest writes for the kinds it knows: kind ‖
// time ‖ nonce ‖ the fields ‖ the signature by kp over the request label,
// those bytes and the ID of the verifier audience.
func signedForm(t *testing.T, kp *keys.KeyPair, audience keys.PeerID, kind byte, at time.Time, fields ...[]byte) []byte {
	t.Helper()
	nonce := proto.NewNonce()
	raw := append(binary.BigEndian.AppendUint64([]byte{kind}, uint64(at.UnixNano())), nonce[:]...)
	for _, f := range fields {
		raw = proto.AppendField(raw, f)
	}
	sig, err := kp.Sign(append(append([]byte("jxta-overlay/signed-request/v1"), raw...), audience...))
	if err != nil {
		t.Fatal(err)
	}
	return proto.AppendField(raw, sig)
}

// One kind's bytes are never read as another's: a login and a database
// query — both signed by alice for the broker — and a heartbeat in the
// three-field layout that carried her credential, each sent as a
// heartbeat; and a database answer — signed for the broker, as every
// answer is, and in clear on the broker–database link — sealed under a
// connect's login key as a login. All are refused at the layout, before
// anything is spent: no link looked up, no signature, her lease's seq
// untouched, and the session identifier presented with nothing is still
// pending.
func TestRequestOfAnotherKindRefused(t *testing.T) {
	s := newLeaseStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	kp, broker := alice.Identity().Keys, s.br.PeerID()
	lease, _ := alice.Lease()
	credRaw := credentialBytes(t, alice)
	query, err := proto.AppendRequest(nil, kp, broker, proto.KindQuery, alice.Now(), proto.NewNonce(),
		credRaw, []byte("auth"), []byte("alice"), []byte("alice-secret-pw"))
	if err != nil {
		t.Fatal(err)
	}
	ts := s.brSec.Trust()
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"a login", loginRequest(t, "alice", "alice-secret-pw", alice.PeerID(), kp, "sid", broker)},
		{"a database query", query},
		{"a heartbeat carrying the credential", signedForm(t, kp, broker, byte(proto.KindHeartbeat), alice.Now(),
			credRaw, []byte(lease), binary.BigEndian.AppendUint64(nil, 1))},
	} {
		looked, signed := lookups(ts), s.brKP.SignCalls()
		if err := callRequest(t, alice, core.OpHeartbeat, tc.body); !refusedWith(err, proto.ErrBadRequest) {
			t.Fatalf("%s as a heartbeat: err = %v, want the %q refusal", tc.name, err, proto.ErrBadRequest)
		}
		if n := lookups(ts) - looked; n != 0 {
			t.Fatalf("%s as a heartbeat: the broker looked up %d links", tc.name, n)
		}
		if n := s.brKP.SignCalls() - signed; n != 0 {
			t.Fatalf("the broker signed %d times for %s sent as a heartbeat", n, tc.name)
		}
	}
	if err := callRequest(t, alice, core.OpHeartbeat, heartbeatFor(t, alice, broker, 1)); err != nil {
		t.Fatalf("the first heartbeat after the refusals: %v", err)
	}

	mallory := rawConnect(t, s.client(t, "mallory"), broker)
	pending := s.brSec.PendingSids()
	db, err := keys.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	nonce := proto.NewNonce()
	answer, err := proto.AppendRequest(nil, db, broker, proto.KindAnswer, s.br.Now(), nonce, nil, []byte("math"))
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

// A request is read whole or not at all: a genuine heartbeat with one byte
// behind it is refused, and the same heartbeat without it then renews the
// lease — the refusal spent nothing of it, not even its seq.
func TestRequestWithTrailingBytesRefused(t *testing.T) {
	s := newLeaseStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	heartbeat := heartbeatFor(t, alice, s.br.PeerID(), 1)
	if err := callRequest(t, alice, core.OpHeartbeat, append(bytes.Clone(heartbeat), 0)); !refusedWith(err, proto.ErrBadRequest) {
		t.Fatalf("a heartbeat with a trailing byte: err = %v, want the %q refusal", err, proto.ErrBadRequest)
	}
	if err := callRequest(t, alice, core.OpHeartbeat, heartbeat); err != nil {
		t.Fatalf("the same heartbeat, whole: %v", err)
	}
	if st := s.brSec.LivenessStats(); st.HeartbeatsRenewed != 1 || st.HeartbeatsRejected != 1 {
		t.Fatalf("liveness = %+v, want 1 renewed and 1 rejected", st)
	}
}

// A request is for the verifier it was signed for: alice's heartbeat,
// signed for broker-2, is refused by broker-1 — her lease, her key and the
// time all pass there — and the same heartbeat signed for broker-1 renews
// the lease.
func TestRequestSignedForAnotherBrokerRefused(t *testing.T) {
	s := newLeaseStack(t)
	other, err := s.dep.StartBroker(broker.Config{Name: "broker-2", Net: s.net, DB: broker.LocalDB(s.db), RequireSecureLogin: true},
		core.BrokerConfig{RequireSignedAdvs: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(other.Close)
	alice := s.join(t, "alice", "alice-secret-pw")
	if err := callRequest(t, alice, core.OpHeartbeat, heartbeatFor(t, alice, other.Broker.PeerID(), 1)); !refusedWith(err, proto.ErrBadSignature) {
		t.Fatalf("a heartbeat signed for broker-2: err = %v, want the %q refusal", err, proto.ErrBadSignature)
	}
	if err := callRequest(t, alice, core.OpHeartbeat, heartbeatFor(t, alice, s.br.PeerID(), 1)); err != nil {
		t.Fatalf("the heartbeat signed for broker-1: %v", err)
	}
}

// A credential is issued at secureLogin only, which asks the user
// database: once the administrator disables alice, nothing extends the
// credential she holds. A renewal built by hand — the retired kind 3,
// carrying her credential, signed with her key for the broker — and sent
// as the secureRenew op it was once answered under is an unknown op: the
// broker signs nothing. Her next login is refused auth-failed.
func TestDisabledUserCannotExtendCredential(t *testing.T) {
	s := newSecureStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	held := alice.Identity().Credential
	if err := s.db.SetDisabled("alice", true); err != nil {
		t.Fatal(err)
	}

	renewal := signedForm(t, alice.Identity().Keys, s.br.PeerID(), 3, alice.Now(), credentialBytes(t, alice))
	signed := s.brKP.SignCalls()
	resp, err := alice.Call(testCtx(t), endpoint.NewMessage().AddString(proto.ElemOp, "secureRenew").Add(proto.ElemBody, renewal))
	if err == nil {
		if raw, ok := resp.Get(proto.ElemCred); ok {
			if fresh, err := cred.Parse(raw); err == nil && fresh.NotAfter.After(held.NotAfter) {
				t.Fatalf("a disabled user's credential was extended from %v to %v", held.NotAfter, fresh.NotAfter)
			}
		}
		t.Fatal("a disabled user's renewal was answered")
	}
	if !refusedWith(err, proto.ErrUnknownOp) {
		t.Fatalf("a disabled user's renewal: err = %v, want the %q refusal", err, proto.ErrUnknownOp)
	}
	if n := s.brKP.SignCalls() - signed; n != 0 {
		t.Fatalf("the broker signed %d times for a disabled user's renewal", n)
	}

	err = s.client(t, "alice").Join(testCtx(t), s.br.PeerID(), "alice-secret-pw")
	if !errors.Is(err, core.ErrLoginRejected) || !strings.HasSuffix(err.Error(), proto.ErrAuthFailed) {
		t.Fatalf("a disabled user's login: err = %v, want the %q refusal", err, proto.ErrAuthFailed)
	}
}
