package core

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
)

// FuzzSignedRequest feeds arbitrary bytes, as a heartbeat or a renewal,
// to the broker's one verifier of credential-signed requests, on a
// fixture broker whose clock stands still so that the seeds stay valid
// for the whole run. The seeds are a valid request of every kind, signed
// for that broker: a heartbeat and a renewal under a credential it
// issued, which it takes; a login, a database query and a database
// answer, which it must refuse as another kind's bytes.
// Properties: it never panics; every refusal is one of the proto error
// tokens the verifier answers with; and anything accepted carries a
// signature, made for this broker, that verifies under its credential's
// key.
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
	wire, err := issued.Bytes()
	if err != nil {
		f.Fatal(err)
	}
	der, err := client.Public().MarshalDER()
	if err != nil {
		f.Fatal(err)
	}
	share, _ := client.Public().AgreementShare()
	for i, seed := range []struct {
		kind   proto.RequestKind
		fields [][]byte
	}{
		{proto.KindHeartbeat, [][]byte{wire, []byte("ls-00"), binary.BigEndian.AppendUint64(nil, 1)}},
		{proto.KindRenew, [][]byte{wire}},
		{proto.KindLogin, [][]byte{[]byte("sender"), []byte("pw"), []byte(subject), der, share[:], []byte("sid")}},
		{proto.KindQuery, [][]byte{wire, []byte("auth"), []byte("sender"), []byte("pw")}},
		{proto.KindAnswer, [][]byte{nil, []byte("math")}},
	} {
		raw, err := proto.AppendRequest(nil, client, brokerID, seed.kind, at, [proto.NonceSize]byte{byte(i)}, seed.fields...)
		if err != nil {
			f.Fatal(err)
		}
		// A heartbeat takes no nonce entry: checking its seed here leaves
		// the run's guard as it was.
		if seed.kind == proto.KindHeartbeat {
			if _, _, token := bs.credentialedRequest(subject, requestMsg(raw), seed.kind, "", ""); token != "" {
				f.Fatalf("the valid heartbeat seed is refused: %s", token)
			}
		}
		renew := seed.kind == proto.KindRenew
		f.Add(raw, renew)
		f.Add(raw, !renew)
	}

	tokens := map[string]bool{proto.ErrBadRequest: true, proto.ErrBadCredential: true, proto.ErrBadSignature: true, proto.ErrCBIDMismatch: true}
	f.Fuzz(func(t *testing.T, raw []byte, renew bool) {
		kind, auditKind, op := proto.KindHeartbeat, audit.KindHeartbeat, OpHeartbeat
		if renew {
			kind, auditKind, op = proto.KindRenew, audit.KindRenew, OpSecureRenew
		}
		req, current, token := bs.credentialedRequest(subject, requestMsg(raw), kind, auditKind, op)
		if token != "" {
			if !tokens[token] || req != nil || current != nil {
				t.Fatalf("refused with %q beside (%v, %v): want one of the verifier's proto tokens alone", token, req, current)
			}
			return
		}
		if req == nil || current == nil {
			t.Fatalf("accepted as (%v, %v)", req, current)
		}
		// A fresh guard of this broker's reads it again under the
		// credential's key: the signature is the credential's, for here.
		if _, err := proto.NewRequestGuard(brokerID).Open(raw, kind, at, func(*proto.Request) (*keys.PublicKey, error) {
			return current.Key, nil
		}); err != nil {
			t.Fatalf("accepted a request whose signature does not verify under its credential's key for this broker: %v", err)
		}
	})
}

// requestMsg is raw as a heartbeat or renewal call carries it.
func requestMsg(raw []byte) *endpoint.Message {
	return endpoint.NewMessage().Add(proto.ElemBody, raw)
}
