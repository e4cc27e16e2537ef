package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/xmldoc"
)

// FuzzCredentialedRequest feeds arbitrary body and sig elements to the
// broker's one verifier of credential-signed requests — the heartbeat,
// every third of a lease from every session, and secureRenew — on a
// fixture broker whose clock stands still, so the seeds (a valid
// heartbeat and a valid renew, signed under a credential that broker
// issued) stay valid for the whole run.
// Properties: it never panics; every refusal is one of the proto error
// tokens the verifier answers with; and anything accepted carries a
// signature over its body that verifies under its credential's key.
func FuzzCredentialedRequest(f *testing.F) {
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

	client := senderKP
	subject, err := keys.CBID(client.Public())
	if err != nil {
		f.Fatal(err)
	}
	issued, err := bs.IssueClientCredential(subject, "sender", client.Public())
	if err != nil {
		f.Fatal(err)
	}
	credDoc, err := issued.Document()
	if err != nil {
		f.Fatal(err)
	}
	// request is callCredentialed's body and signature, at the broker's now.
	request := func(root string, fields ...[2]string) (body, sig []byte) {
		doc := xmldoc.New(root, "")
		for _, kv := range fields {
			doc.AddText(kv[0], kv[1])
		}
		doc.AddText("Timestamp", signedTime(at))
		doc.Add(credDoc.Clone())
		if sig, err = client.Sign(doc.Canonical()); err != nil {
			f.Fatal(err)
		}
		return doc.Canonical(), sig
	}
	for _, seed := range []struct {
		root   string
		fields [][2]string
	}{
		{"HeartbeatRequest", [][2]string{{"Lease", "ls-00"}, {"Seq", "1"}}},
		{"SecureRenewRequest", [][2]string{{"Nonce", "AAAAAAAAAAAAAAAAAAAAAA=="}}},
	} {
		body, sig := request(seed.root, seed.fields...)
		msg := endpoint.NewMessage().Add(proto.ElemBody, body).Add(proto.ElemSig, sig)
		if _, _, token := bs.credentialedRequest(subject, msg, seed.root, "", ""); token != "" {
			f.Fatalf("the valid %s seed is refused: %s", seed.root, token)
		}
		renew := seed.root == "SecureRenewRequest"
		f.Add(body, sig, renew)
		f.Add(body, []byte(nil), renew)
	}
	f.Add([]byte("<HeartbeatRequest></HeartbeatRequest>"), []byte(nil), false)

	tokens := map[string]bool{proto.ErrBadRequest: true, proto.ErrBadCredential: true, proto.ErrBadSignature: true, proto.ErrCBIDMismatch: true}
	f.Fuzz(func(t *testing.T, body, sig []byte, renew bool) {
		root, kind, op := "HeartbeatRequest", audit.KindHeartbeat, OpHeartbeat
		if renew {
			root, kind, op = "SecureRenewRequest", audit.KindRenew, OpSecureRenew
		}
		msg := endpoint.NewMessage().Add(proto.ElemBody, body).Add(proto.ElemSig, sig)
		doc, current, token := bs.credentialedRequest(subject, msg, root, kind, op)
		if token != "" {
			if !tokens[token] || doc != nil || current != nil {
				t.Fatalf("refused with %q beside (%v, %v): want one of the verifier's proto tokens alone", token, doc, current)
			}
			return
		}
		if doc == nil || current == nil || doc.Name != root {
			t.Fatalf("accepted as (%v, %v)", doc, current)
		}
		if err := current.Key.Verify(body, sig); err != nil {
			t.Fatalf("accepted a request whose signature does not verify under its credential's key: %v", err)
		}
	})
}
