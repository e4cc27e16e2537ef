package cred

import (
	"encoding/base64"
	"errors"
	"math/rand"
	"testing"
	"time"

	"jxtaoverlay/internal/keys"
)

var (
	adminKP  = mustKey(100)
	brokerKP = mustKey(101)
	clientKP = mustKey(102)
	otherKP  = mustKey(103)
)

func mustKey(seed int64) *keys.KeyPair {
	kp, err := keys.KeyPairFrom(rand.New(rand.NewSource(seed)), keys.DefaultRSABits)
	if err != nil {
		panic(err)
	}
	return kp
}

func mustID(t testing.TB, kp *keys.KeyPair) keys.PeerID {
	t.Helper()
	id, err := keys.CBID(kp.Public())
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func setup(t testing.TB) (adm *Credential, br *Credential, cl *Credential) {
	t.Helper()
	adm, err := SelfSigned(adminKP, "admin", time.Hour)
	if err != nil {
		t.Fatalf("SelfSigned: %v", err)
	}
	br, err = Issue(adminKP, adm.Subject, mustID(t, brokerKP), "broker-1", RoleBroker, brokerKP.Public(), time.Hour)
	if err != nil {
		t.Fatalf("Issue broker: %v", err)
	}
	cl, err = Issue(brokerKP, br.Subject, mustID(t, clientKP), "alice", RoleClient, clientKP.Public(), time.Hour)
	if err != nil {
		t.Fatalf("Issue client: %v", err)
	}
	return adm, br, cl
}

func TestSelfSignedVerifies(t *testing.T) {
	adm, _, _ := setup(t)
	if adm.Subject != adm.Issuer {
		t.Fatal("self-signed credential has distinct issuer")
	}
	if err := adm.Verify(adminKP.Public(), time.Now()); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := adm.VerifyCBID(); err != nil {
		t.Fatalf("VerifyCBID: %v", err)
	}
}

func TestIssueAndVerify(t *testing.T) {
	_, br, _ := setup(t)
	if err := br.Verify(adminKP.Public(), time.Now()); err != nil {
		t.Fatalf("broker credential Verify: %v", err)
	}
	if err := br.Verify(otherKP.Public(), time.Now()); err == nil {
		t.Fatal("broker credential verified under wrong issuer key")
	}
	if br.Role != RoleBroker {
		t.Fatalf("role = %q", br.Role)
	}
}

func TestVerifyExpired(t *testing.T) {
	_, br, _ := setup(t)
	if err := br.Verify(adminKP.Public(), time.Now().Add(2*time.Hour)); err != ErrExpired {
		t.Fatalf("Verify after expiry = %v, want ErrExpired", err)
	}
	if err := br.Verify(adminKP.Public(), time.Now().Add(-2*time.Hour)); err != ErrExpired {
		t.Fatalf("Verify before NotBefore = %v, want ErrExpired", err)
	}
}

// TestDocumentParseRoundTrip: the element an advertisement's KeyInfo
// carries is the credential's bytes in base64, and they parse back to a
// credential that still verifies.
func TestDocumentParseRoundTrip(t *testing.T) {
	_, _, cl := setup(t)
	doc, err := cl.Document()
	if err != nil {
		t.Fatalf("Document: %v", err)
	}
	raw, err := base64.StdEncoding.DecodeString(doc.Text)
	if err != nil || doc.Name != ElementName || len(doc.Children) != 0 {
		t.Fatalf("Document = %s", doc.Canonical())
	}
	back, err := Parse(raw)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !cl.Equal(back) {
		t.Fatal("round trip credential mismatch")
	}
	// Signature must survive the round trip and still verify.
	if err := back.Verify(brokerKP.Public(), time.Now()); err != nil {
		t.Fatalf("Verify after round trip: %v", err)
	}
}

// TestParseRejectsTamper: a credential whose subject name was edited after
// issue parses — it is well formed — and fails its issuer's signature.
func TestParseRejectsTamper(t *testing.T) {
	_, _, cl := setup(t)
	edited := cl.Clone()
	edited.SubjectName = "mallory" // privilege escalation attempt
	raw, err := edited.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(raw)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := back.Verify(brokerKP.Public(), time.Now()); err != ErrBadSignature {
		t.Fatalf("Verify tampered credential = %v, want ErrBadSignature", err)
	}
}

func TestParseErrors(t *testing.T) {
	_, _, cl := setup(t)
	edit := func(f func(l *layout)) []byte {
		l := layoutOf(t, cl)
		f(&l)
		return l.join()
	}
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"nil", nil},
		{"not a credential", []byte("<Credential/>")},
		{"malformed key", edit(func(l *layout) { l.key = []byte("###") })},
		{"malformed NotAfter", edit(func(l *layout) { l.notAfter = l.notAfter[:11] })},
		{"no signature", edit(func(l *layout) { l.sig = nil })},
	} {
		if _, err := Parse(tc.raw); !errors.Is(err, ErrMalformed) {
			t.Errorf("Parse accepted %s: %v", tc.name, err)
		}
	}
}

func TestCBIDBindingDetectsKeySubstitution(t *testing.T) {
	// An attacker reuses alice's subject ID with their own key; the
	// credential can't be re-signed, but even if the issuer were tricked,
	// the CBID check still fails.
	_, br, _ := setup(t)
	forged, err := Issue(brokerKP, br.Subject, mustID(t, clientKP), "alice", RoleClient, otherKP.Public(), time.Hour)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	if err := forged.VerifyCBID(); err == nil {
		t.Fatal("VerifyCBID accepted substituted key")
	}
}

func TestTrustStoreVerify(t *testing.T) {
	adm, br, cl := setup(t)
	ts, err := NewTrustStore(adm)
	if err != nil {
		t.Fatalf("NewTrustStore: %v", err)
	}
	if err := ts.Verify(br, time.Now()); err != nil {
		t.Fatalf("Verify broker: %v", err)
	}
	// A client credential is the broker's to issue: alone it chains to no
	// anchor, even once the broker's own credential has verified.
	if err := ts.Verify(cl, time.Now()); !errors.Is(err, ErrUntrusted) {
		t.Fatalf("client credential verified without its issuer: %v", err)
	}
}

func TestTrustStoreVerifyChain(t *testing.T) {
	adm, br, cl := setup(t)
	ts, err := NewTrustStore(adm)
	if err != nil {
		t.Fatalf("NewTrustStore: %v", err)
	}
	now := time.Now()
	if err := ts.VerifyChain(now, cl, br); err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
	// A verified chain vouches for no issuer outside it: cut to its leaf,
	// the chain is refused.
	if err := ts.VerifyChain(now, cl); !errors.Is(err, ErrUntrusted) {
		t.Fatalf("leaf alone after its chain verified = %v, want ErrUntrusted", err)
	}
	// Nor does it outlive the broker's credential: a client credential
	// valid for three hours, remembered through its chain, is refused
	// ninety minutes later, when the broker's one-hour credential has run
	// out — with the broker or without it.
	long, err := Issue(brokerKP, br.Subject, mustID(t, clientKP), "alice", RoleClient, clientKP.Public(), 3*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.VerifyChain(now, long, br); err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
	later := now.Add(90 * time.Minute)
	if err := ts.VerifyChain(later, long, br); !errors.Is(err, ErrExpired) {
		t.Fatalf("chain past its broker's NotAfter = %v, want ErrExpired", err)
	}
	if err := ts.VerifyChain(later, long); !errors.Is(err, ErrUntrusted) {
		t.Fatalf("leaf alone past its broker's NotAfter = %v, want ErrUntrusted", err)
	}
}

// TestTrustStoreClientIssuedLinkRefused: only an administrator or a broker
// issues. A logged-in client holds a valid credential and the key it
// certifies, so it can sign a credential for any key under any name; the
// chain it builds — minted, its own, its broker's — verifies link by link
// under the keys it carries. The issuer's role refuses it, and a database
// credential, also administrator-issued, issues nothing either.
func TestTrustStoreClientIssuedLinkRefused(t *testing.T) {
	adm, br, cl := setup(t)
	ts, err := NewTrustStore(adm)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	minted, err := Issue(clientKP, cl.Subject, mustID(t, otherKP), "alice", RoleClient, otherKP.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.VerifyChain(now, minted, cl, br); !errors.Is(err, ErrUntrusted) {
		t.Fatalf("credential issued by a client = %v, want ErrUntrusted", err)
	}
	db, err := Issue(adminKP, adm.Subject, mustID(t, clientKP), "db", RoleDatabase, clientKP.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	viaDB, err := Issue(clientKP, db.Subject, mustID(t, otherKP), "alice", RoleClient, otherKP.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.VerifyChain(now, db); err != nil {
		t.Fatalf("database credential: %v", err)
	}
	if err := ts.VerifyChain(now, viaDB, db); !errors.Is(err, ErrUntrusted) {
		t.Fatalf("credential issued by a database = %v, want ErrUntrusted", err)
	}
	// The links under the minted one are sound, and still verify.
	if err := ts.VerifyChain(now, cl, br); err != nil {
		t.Fatalf("honest chain after the attempts: %v", err)
	}
}

func TestTrustStoreVerifyChainBroken(t *testing.T) {
	adm, br, _ := setup(t)
	ts, _ := NewTrustStore(adm)

	// Leaf issued by an entity that is not in the chain.
	stray, err := Issue(otherKP, keys.LegacyPeerID("rogue"), mustID(t, clientKP), "alice", RoleClient, clientKP.Public(), time.Hour)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	if err := ts.VerifyChain(time.Now(), stray, br); err == nil {
		t.Fatal("VerifyChain accepted broken chain")
	}
	if err := ts.VerifyChain(time.Now()); err == nil {
		t.Fatal("VerifyChain accepted empty chain")
	}
}

func TestTrustStoreRejectsFakeAnchor(t *testing.T) {
	// Not self-signed.
	_, br, _ := setup(t)
	if _, err := NewTrustStore(br); err == nil {
		t.Fatal("NewTrustStore accepted non-self-signed anchor")
	}
}

func TestTrustStoreRejectsFakeBrokerCredential(t *testing.T) {
	// The fake-broker scenario: a credential self-made by the attacker,
	// not issued by the administrator.
	adm, _, _ := setup(t)
	ts, _ := NewTrustStore(adm)
	fakeID := mustID(t, otherKP)
	fake, err := Issue(otherKP, fakeID, fakeID, "evil-broker", RoleBroker, otherKP.Public(), time.Hour)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	if err := ts.Verify(fake, time.Now()); err == nil {
		t.Fatal("trust store verified a self-issued broker credential")
	}
}

// TestForgedLapsedLinkIsBadSignature: a link's signature is checked
// before its validity window. A leaf another key "issued" under the
// broker's name reads ErrBadSignature even with a window that ended an
// hour ago — a forgery is refused as one, not as a lapse a fresher
// chain may mend — while the broker's own leaf with that window still
// reads ErrExpired.
func TestForgedLapsedLinkIsBadSignature(t *testing.T) {
	adm, br, _ := setup(t)
	ts, err := NewTrustStore(adm)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	lapsed := func(kp *keys.KeyPair) *Credential {
		c, err := IssueAt(now.Add(-2*time.Hour), kp, br.Subject, mustID(t, clientKP), "alice", RoleClient, clientKP.Public(), time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	forged, genuine := lapsed(otherKP), lapsed(brokerKP)
	if err := forged.Verify(brokerKP.Public(), now); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("forged lapsed credential = %v, want ErrBadSignature", err)
	}
	if err := ts.VerifyChain(now, forged, br); !errors.Is(err, ErrBadSignature) || errors.Is(err, ErrExpired) {
		t.Fatalf("chain with a forged lapsed leaf = %v, want ErrBadSignature", err)
	}
	if err := ts.VerifyChain(now, genuine, br); !errors.Is(err, ErrExpired) {
		t.Fatalf("chain with a genuine lapsed leaf = %v, want ErrExpired", err)
	}
}
