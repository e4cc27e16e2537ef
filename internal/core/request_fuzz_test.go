package core

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
)

// FuzzSignedRequest feeds arbitrary bytes, as a heartbeat, to the broker's
// heartbeat handler, on a fixture broker whose clock stands still so that
// the seeds stay valid for the whole run, and whose one lease — holding a
// credential the broker issued — is granted afresh for every input. The
// seeds are a valid heartbeat for that lease, which it takes; and, which it
// must refuse, a login, a database query and a database answer signed for
// that broker, a heartbeat in the three-field layout that carried the
// credential, the credential's own bytes, and the valid heartbeat bent one
// way each: another lease id, signed for another broker, signed by another
// key, a seq short of eight bytes.
// Properties: it never panics; every refusal is one of the proto error
// tokens the handler answers with; and anything accepted carries a
// signature, made for this broker, that verifies under the lease
// credential's key.
func FuzzSignedRequest(f *testing.F) {
	net := simnet.NewNetwork(simnet.ProfileLocal)
	defer net.Close()
	dep, err := NewDeploymentFromKey(mustKey(420), "admin")
	if err != nil {
		f.Fatal(err)
	}
	site, err := dep.StartBroker(broker.Config{Name: "broker-1", Net: net,
		DB: broker.AuthenticatorFunc(func(context.Context, string, string) ([]string, error) {
			return nil, errors.New("no users")
		})}, BrokerConfig{KeyPair: mustKey(421)})
	if err != nil {
		f.Fatal(err)
	}
	defer site.Close()
	at := time.Now()
	site.Broker.Endpoint().SetClock(func() time.Time { return at })
	bs := site.Security
	brokerID := bs.Credential().Subject

	client := senderKP
	subject, err := keys.CBID(client.Public())
	if err != nil {
		f.Fatal(err)
	}
	issued, err := bs.IssueClientCredential(subject, "sender", client.Public())
	if err != nil {
		f.Fatal(err)
	}
	const leaseID = "ls-00"
	heartbeat := func(raw []byte) (ok bool, token string) {
		bs.mu.Lock()
		bs.leases[subject] = &lease{id: leaseID, expiry: at.Add(time.Hour), cred: issued}
		bs.mu.Unlock()
		return proto.IsOK(bs.handleHeartbeat(subject, endpoint.NewMessage().Add(proto.ElemBody, raw)))
	}

	wire, err := issued.Bytes()
	if err != nil {
		f.Fatal(err)
	}
	der, err := client.Public().MarshalDER()
	if err != nil {
		f.Fatal(err)
	}
	share, _ := client.Public().AgreementShare()
	seq := binary.BigEndian.AppendUint64(nil, 1)
	for i, seed := range []struct {
		signer   *keys.KeyPair
		audience keys.PeerID
		kind     proto.RequestKind
		fields   [][]byte
	}{
		{client, brokerID, proto.KindHeartbeat, [][]byte{[]byte(leaseID), seq}},
		{client, brokerID, proto.KindLogin, [][]byte{[]byte("sender"), []byte("pw"), []byte(subject), der, share[:], []byte("sid")}},
		{client, brokerID, proto.KindQuery, [][]byte{wire, []byte("auth"), []byte("sender"), []byte("pw")}},
		{client, brokerID, proto.KindAnswer, [][]byte{nil, []byte("math")}},
		{client, brokerID, proto.KindHeartbeat, [][]byte{[]byte("ls-01"), seq}},
		{client, "urn:jxta:cbid-broker-2", proto.KindHeartbeat, [][]byte{[]byte(leaseID), seq}},
		{evilKP, brokerID, proto.KindHeartbeat, [][]byte{[]byte(leaseID), seq}},
		{client, brokerID, proto.KindHeartbeat, [][]byte{[]byte(leaseID), seq[1:]}},
	} {
		raw, err := proto.AppendRequest(nil, seed.signer, seed.audience, seed.kind, at, [proto.NonceSize]byte{byte(i)}, seed.fields...)
		if err != nil {
			f.Fatal(err)
		}
		if ok, token := heartbeat(raw); ok != (i == 0) {
			f.Fatalf("seed %d answered ok = %v (%s)", i, ok, token)
		}
		f.Add(raw)
	}
	for i, raw := range [][]byte{threeFieldHeartbeat(f, client, brokerID, at, wire, []byte(leaseID), seq), wire} {
		if ok, _ := heartbeat(raw); ok {
			f.Fatalf("extra seed %d accepted", i)
		}
		f.Add(raw)
	}

	tokens := map[string]bool{proto.ErrBadRequest: true, proto.ErrBadCredential: true, proto.ErrBadSignature: true, proto.ErrLeaseExpired: true}
	f.Fuzz(func(t *testing.T, raw []byte) {
		ok, token := heartbeat(raw)
		if !ok {
			if !tokens[token] {
				t.Fatalf("refused with %q: want one of the handler's proto tokens", token)
			}
			return
		}
		// A fresh guard of this broker's reads it again under the lease
		// credential's key: the signature is that key's, for here.
		if _, err := proto.NewRequestGuard(brokerID).Open(raw, proto.KindHeartbeat, at, func(*proto.Request) (*keys.PublicKey, error) {
			return issued.Key, nil
		}); err != nil {
			t.Fatalf("accepted a heartbeat whose signature does not verify under the lease credential's key for this broker: %v", err)
		}
	})
}

// threeFieldHeartbeat is a heartbeat in the layout that carried the
// session credential in front of the lease id and seq, signed by kp for
// audience as proto.AppendRequest signs: kind ‖ time ‖ nonce ‖ the fields ‖
// the signature over the request label, those bytes and the audience.
func threeFieldHeartbeat(t testing.TB, kp *keys.KeyPair, audience keys.PeerID, at time.Time, fields ...[]byte) []byte {
	t.Helper()
	raw := binary.BigEndian.AppendUint64([]byte{byte(proto.KindHeartbeat)}, uint64(at.UnixNano()))
	raw = append(raw, make([]byte, proto.NonceSize)...)
	for _, f := range fields {
		raw = proto.AppendField(raw, f)
	}
	sig, err := kp.Sign(append(append([]byte("jxta-overlay/signed-request/v1"), raw...), audience...))
	if err != nil {
		t.Fatal(err)
	}
	return proto.AppendField(raw, sig)
}
