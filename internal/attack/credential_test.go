// Negatives for the credential's one binary form, which a credential shares
// with the signed requests and the audit checkpoints: one form's bytes are
// never read as another's (each is refused at its kind byte, before any
// RSA); a credential is read whole and in the one encoding of its times;
// and a field edited after issue fails the issuer's signature.
package attack_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
)

// lookups is how many link verdicts ts has looked up: each miss is one RSA
// verification, so a count that did not move is a refusal that spent none.
func lookups(ts *cred.TrustStore) uint64 {
	hits, misses := ts.ChainCacheStats()
	return hits + misses
}

// credentialBytes is the bytes of the credential sc holds as its own.
func credentialBytes(t *testing.T, sc *core.SecureClient) []byte {
	t.Helper()
	raw, err := sc.Identity().Credential.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(raw)
}

// checkpointPayload is the payload of the checkpoint a journal signed by
// the broker's key and credential is sealed with.
func checkpointPayload(t *testing.T, s *secureStack) []byte {
	t.Helper()
	dir := t.TempDir()
	j, err := audit.Open(audit.Options{Dir: dir, SyncInterval: time.Hour, Signer: s.brKP, Chain: []*cred.Credential{s.brSec.Credential()}})
	if err != nil {
		t.Fatal(err)
	}
	j.Record(audit.Event{Kind: audit.KindLogin, Peer: "urn:jxta:cbid-alice", Op: "secureLogin", Reason: "ok"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "audit-*.seg"))
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for len(data) > 0 {
			rec, n, err := audit.DecodeRecord(data)
			if err != nil {
				break
			}
			if rec.Frame == audit.FrameCheckpoint {
				return bytes.Clone(rec.Checkpoint)
			}
			data = data[n:]
		}
	}
	t.Fatal("the journal holds no checkpoint")
	return nil
}

// TestFormOfAnotherKindRefusedAtKindByte: forms presented where another
// is read. Alice's credential and a checkpoint as a heartbeat's body, and a
// heartbeat request in the secureConnection answer's credential slot, are
// each refused at the first byte: the verifier looks up no link — no RSA —
// and the broker signs nothing.
func TestFormOfAnotherKindRefusedAtKindByte(t *testing.T) {
	s := newLeaseStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	ts := s.brSec.Trust()
	checkpoint := checkpointPayload(t, s.secureStack)
	if _, err := cred.Parse(checkpoint); !errors.Is(err, cred.ErrMalformed) {
		t.Fatalf("a checkpoint parsed as a credential: %v", err)
	}

	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"a client credential as a heartbeat", credentialBytes(t, alice)},
		{"a checkpoint as a heartbeat", checkpoint},
	} {
		looked, signed := lookups(ts), s.brKP.SignCalls()
		if err := callRequest(t, alice, core.OpHeartbeat, tc.body); !refusedWith(err, proto.ErrBadRequest) {
			t.Fatalf("%s: err = %v, want the %q refusal", tc.name, err, proto.ErrBadRequest)
		}
		if n := lookups(ts) - looked; n != 0 {
			t.Fatalf("%s: the broker looked up %d links", tc.name, n)
		}
		if n := s.brKP.SignCalls() - signed; n != 0 {
			t.Fatalf("%s: the broker signed %d times", tc.name, n)
		}
	}

	// A twin of the broker answers secureConnection with the tag, share
	// and share statement of the broker's keys and alice's heartbeat
	// request where its credential goes.
	eve := attack.NewEavesdropper(s.net)
	if err := alice.SecureHeartbeat(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	heartbeat, _ := capturedCall(t, eve, s.br.PeerID(), core.OpHeartbeat).Get(proto.ElemBody)
	twin, err := broker.New(broker.Config{Name: "broker-1", PeerID: "urn:jxta:twin", Net: s.net, DB: broker.LocalDB(s.db)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(twin.Close)
	share, _ := s.brKP.Public().AgreementShare()
	statement, err := s.brKP.Sign(core.ShareStatement(s.br.PeerID(), share[:]))
	if err != nil {
		t.Fatal(err)
	}
	twin.RegisterOp(proto.OpSecureConnect, func(_ keys.PeerID, msg *endpoint.Message) *endpoint.Message {
		e, _ := msg.Get(proto.ElemChallenge)
		secret, _ := s.brKP.Agree(e)
		tag, _ := core.ConnectKeys(secret, e, share[:], s.br.PeerID(), "deadbeef")
		return proto.OK().AddString(proto.ElemSid, "deadbeef").Add(proto.ElemTag, tag[:]).
			Add(proto.ElemCred, heartbeat).Add(proto.ElemShare, share[:]).Add(proto.ElemSig, statement)
	})
	bob := s.client(t, "bob")
	bobTrust := bob.VerifyCache().TrustStore()
	looked := lookups(bobTrust)
	if err := bob.SecureConnection(testCtx(t), twin.PeerID()); !errors.Is(err, core.ErrBrokerNotLegit) {
		t.Fatalf("a heartbeat as the broker's credential: err = %v, want ErrBrokerNotLegit", err)
	}
	if n := lookups(bobTrust) - looked; n != 0 {
		t.Fatalf("a heartbeat as the broker's credential: the client looked up %d links", n)
	}
}

// TestCredentialInAnotherSpellingRefused: alice's credential with one byte
// behind it, and with its NotBefore spelled as the second before and 10⁹
// nanoseconds — the same instant — are refused as credentials, before any
// RSA, while the credential as issued parses.
func TestCredentialInAnotherSpellingRefused(t *testing.T) {
	s := newSecureStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	raw := credentialBytes(t, alice)
	c := alice.Identity().Credential
	// The times sit in front of the signature and its u16 length;
	// NotBefore is the first twelve of their 24 bytes.
	nb := len(raw) - 2 - len(c.Signature) - 24
	if got := proto.AppendTime(nil, c.NotBefore); !bytes.Equal(raw[nb:nb+12], got) {
		t.Fatal("test setup: NotBefore is not where the layout puts it")
	}
	respelled := bytes.Clone(raw)
	binary.BigEndian.PutUint64(respelled[nb:], uint64(c.NotBefore.Unix()-1))
	binary.BigEndian.PutUint32(respelled[nb+8:], uint32(c.NotBefore.Nanosecond())+1e9)

	for name, variant := range map[string][]byte{
		"a trailing byte":                  append(bytes.Clone(raw), 0),
		"NotBefore's nanoseconds a second": respelled,
	} {
		if _, err := cred.Parse(variant); !errors.Is(err, cred.ErrMalformed) {
			t.Fatalf("%s: parsed (%v)", name, err)
		}
	}
	if _, err := cred.Parse(raw); err != nil {
		t.Fatalf("the credential as issued: %v", err)
	}
}

// TestCredentialFieldEditedAfterIssueRefused: alice's credential with her
// name edited after issue is a well-formed credential whose issuer's
// signature fails: the trust store refuses it.
func TestCredentialFieldEditedAfterIssueRefused(t *testing.T) {
	s := newSecureStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	edited := alice.Identity().Credential.Clone()
	edited.SubjectName = "mallory"
	raw, err := edited.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := cred.Parse(raw)
	if err != nil {
		t.Fatalf("the edited credential does not parse: %v", err)
	}
	if err := s.brSec.Trust().VerifyChain(time.Now(), parsed, s.brSec.Credential()); !errors.Is(err, cred.ErrBadSignature) {
		t.Fatalf("edited credential's chain = %v, want ErrBadSignature", err)
	}
}
