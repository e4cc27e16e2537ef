package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
)

// FuzzSignedRequest feeds arbitrary bytes, as a heartbeat, through the
// broker's Dispatch to its heartbeat handler, on a fixture broker whose
// clock stands still so that the seeds stay valid for the whole run, and
// whose one lease — holding a credential the broker issued — is granted
// afresh for every input. The seeds are a valid heartbeat for that lease,
// which it takes; and, which it must refuse, a login, a database query
// and a database answer signed for that broker, a heartbeat in the
// three-field layout that carried the credential, the credential's own
// bytes, and the valid heartbeat bent one way each: another lease id,
// signed for another broker, signed by another key, a seq short of eight
// bytes; and the signed-request vectors of
// internal/proto, one of each kind, signed by a key this broker never
// issued a credential to, for another broker.
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
		site.Broker.RegisterLeasedPeer(subject, "sender", nil, broker.Lease{ID: leaseID, TTL: time.Hour, Cred: issued})
		return proto.IsOK(site.Broker.Dispatch(subject, endpoint.NewMessage().AddString(proto.ElemOp, OpHeartbeat).Add(proto.ElemBody, raw)))
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
	extra := [][]byte{threeFieldHeartbeat(f, client, brokerID, at, wire, []byte(leaseID), seq), wire}
	for i, raw := range append(extra, requestVectorSeeds(f)...) {
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

// requestVectorSeeds reads the bytes of internal/proto's signed-request
// vectors.
func requestVectorSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	js, err := os.ReadFile("../proto/testdata/vectors/request.json")
	if err != nil {
		tb.Fatal(err)
	}
	var vs []struct{ Hex string }
	if err := json.Unmarshal(js, &vs); err != nil {
		tb.Fatal(err)
	}
	seeds := make([][]byte, len(vs))
	for i, v := range vs {
		seeds[i] = unhex(tb, v.Hex)
	}
	return seeds
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
