package cred

import (
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

func TestDocumentParseRoundTrip(t *testing.T) {
	_, _, cl := setup(t)
	doc, err := cl.Document()
	if err != nil {
		t.Fatalf("Document: %v", err)
	}
	back, err := Parse(doc)
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

func TestParseRejectsTamper(t *testing.T) {
	_, _, cl := setup(t)
	doc, err := cl.Document()
	if err != nil {
		t.Fatalf("Document: %v", err)
	}
	// Tamper with the subject name (privilege escalation attempt).
	doc.Child("SubjectName").Text = "mallory"
	back, err := Parse(doc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := back.Verify(brokerKP.Public(), time.Now()); err != ErrBadSignature {
		t.Fatalf("Verify tampered credential = %v, want ErrBadSignature", err)
	}
}

func TestParseErrors(t *testing.T) {
	_, _, cl := setup(t)
	good, _ := cl.Document()

	if _, err := Parse(nil); err == nil {
		t.Fatal("Parse(nil) succeeded")
	}

	wrongName := good.Clone()
	wrongName.Name = "NotACredential"
	if _, err := Parse(wrongName); err == nil {
		t.Fatal("Parse accepted wrong element name")
	}

	noKey := good.Clone()
	noKey.Child("Key").Text = "###"
	if _, err := Parse(noKey); err == nil {
		t.Fatal("Parse accepted malformed key")
	}

	badTime := good.Clone()
	badTime.Child("NotAfter").Text = "not-a-time"
	if _, err := Parse(badTime); err == nil {
		t.Fatal("Parse accepted malformed NotAfter")
	}

	noSig := good.Clone()
	noSig.RemoveChildren("Signature")
	if _, err := Parse(noSig); err == nil {
		t.Fatal("Parse accepted credential without signature")
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
	// Client credential is not verifiable until the broker is registered
	// as an issuer.
	if err := ts.Verify(cl, time.Now()); err == nil {
		t.Fatal("client credential verified without issuer registration")
	}
	if err := ts.AddIssuer(br, time.Now()); err != nil {
		t.Fatalf("AddIssuer: %v", err)
	}
	if err := ts.Verify(cl, time.Now()); err != nil {
		t.Fatalf("Verify client after AddIssuer: %v", err)
	}
}

func TestTrustStoreVerifyChain(t *testing.T) {
	adm, br, cl := setup(t)
	ts, err := NewTrustStore(adm)
	if err != nil {
		t.Fatalf("NewTrustStore: %v", err)
	}
	if err := ts.VerifyChain(time.Now(), cl, br); err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
	// After a chain verification the broker is cached as issuer.
	if _, ok := ts.IssuerKey(br.Subject); !ok {
		t.Fatal("chain verification did not cache intermediate issuer")
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

func TestIssuerKeyUnknown(t *testing.T) {
	adm, _, _ := setup(t)
	ts, _ := NewTrustStore(adm)
	if _, ok := ts.IssuerKey("urn:jxta:cbid-deadbeef"); ok {
		t.Fatal("IssuerKey returned key for unknown id")
	}
	if got := len(ts.Anchors()); got != 1 {
		t.Fatalf("Anchors() len = %d", got)
	}
}
