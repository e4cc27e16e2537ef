package xdsig

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/xmldoc"
)

var (
	adminKP  = mustKey(200)
	brokerKP = mustKey(201)
	clientKP = mustKey(202)
	mallory  = mustKey(203)
)

func mustKey(seed int64) *keys.KeyPair {
	kp, err := keys.KeyPairFrom(rand.New(rand.NewSource(seed)), keys.DefaultRSABits)
	if err != nil {
		panic(err)
	}
	return kp
}

type fixture struct {
	adm, br, cl *cred.Credential
	ts          *cred.TrustStore
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	adm, err := cred.SelfSigned(adminKP, "admin", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	brID, _ := keys.CBID(brokerKP.Public())
	br, err := cred.Issue(adminKP, adm.Subject, brID, "broker-1", cred.RoleBroker, brokerKP.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	clID, _ := keys.CBID(clientKP.Public())
	cl, err := cred.Issue(brokerKP, br.Subject, clID, "alice", cred.RoleClient, clientKP.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := cred.NewTrustStore(adm)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{adm: adm, br: br, cl: cl, ts: ts}
}

func pipeAdv() *xmldoc.Element {
	return xmldoc.NewTree("PipeAdvertisement",
		xmldoc.New("Id", "urn:jxta:pipe-42"),
		xmldoc.New("Type", "JxtaUnicast"),
		xmldoc.New("Name", "msg/alice"),
	)
}

func TestSignVerify(t *testing.T) {
	f := newFixture(t)
	doc := pipeAdv()
	if err := Sign(doc, clientKP, f.cl, f.br); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if !IsSigned(doc) {
		t.Fatal("IsSigned = false after Sign")
	}
	res, err := Verify(doc)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.Signer.SubjectName != "alice" {
		t.Fatalf("signer = %q", res.Signer.SubjectName)
	}
	if len(res.Chain) != 2 {
		t.Fatalf("chain length = %d", len(res.Chain))
	}
}

func TestSignPreservesDocumentType(t *testing.T) {
	// The key property vs JXTA's Base64 signed advertisements: the root
	// element name (the advertisement type) is still recognizable.
	f := newFixture(t)
	doc := pipeAdv()
	if err := Sign(doc, clientKP, f.cl, f.br); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if doc.Name != "PipeAdvertisement" {
		t.Fatalf("root element became %q", doc.Name)
	}
	if doc.ChildText("Id") != "urn:jxta:pipe-42" {
		t.Fatal("payload fields no longer directly accessible")
	}
}

func TestVerifyTrustedFullChain(t *testing.T) {
	f := newFixture(t)
	doc := pipeAdv()
	if err := Sign(doc, clientKP, f.cl, f.br); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	res, err := VerifyTrusted(doc, f.ts, time.Now())
	if err != nil {
		t.Fatalf("VerifyTrusted: %v", err)
	}
	if res.Signer.Subject != f.cl.Subject {
		t.Fatal("unexpected signer subject")
	}
}

func TestVerifyDetectsTamper(t *testing.T) {
	f := newFixture(t)
	doc := pipeAdv()
	if err := Sign(doc, clientKP, f.cl, f.br); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	// The forged-advertisement attack from §2.3: redirect the pipe.
	doc.Child("Id").SetText("urn:jxta:pipe-evil")
	if _, err := Verify(doc); err != ErrDigestMismatch {
		t.Fatalf("Verify tampered doc = %v, want ErrDigestMismatch", err)
	}
}

func TestVerifyDetectsSignatureSwap(t *testing.T) {
	f := newFixture(t)
	docA := pipeAdv()
	if err := Sign(docA, clientKP, f.cl, f.br); err != nil {
		t.Fatal(err)
	}
	docB := xmldoc.NewTree("PipeAdvertisement",
		xmldoc.New("Id", "urn:jxta:pipe-other"),
		xmldoc.New("Type", "JxtaUnicast"),
		xmldoc.New("Name", "msg/mallory"),
	)
	// Graft A's signature onto B.
	docB.Add(docA.Child(SignatureElement).Clone())
	if _, err := Verify(docB); err == nil {
		t.Fatal("Verify accepted transplanted signature")
	}
}

func TestVerifyDetectsSignedInfoTamper(t *testing.T) {
	f := newFixture(t)
	doc := pipeAdv()
	if err := Sign(doc, clientKP, f.cl, f.br); err != nil {
		t.Fatal(err)
	}
	// Attacker rewrites the document AND fixes up the digest — the
	// SignedInfo signature must then fail.
	doc.Child("Id").SetText("urn:jxta:pipe-evil")
	body := StripSignature(doc)
	di := doc.Child(SignatureElement).Child("SignedInfo").Child("DigestValue")
	di.SetText(b64(keys.SHA256(body.Canonical())))
	if _, err := Verify(doc); err != ErrBadSignature {
		t.Fatalf("Verify = %v, want ErrBadSignature", err)
	}
}

func b64(b []byte) string {
	const tbl = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	var sb strings.Builder
	for len(b) >= 3 {
		sb.WriteByte(tbl[b[0]>>2])
		sb.WriteByte(tbl[(b[0]&0x3)<<4|b[1]>>4])
		sb.WriteByte(tbl[(b[1]&0xF)<<2|b[2]>>6])
		sb.WriteByte(tbl[b[2]&0x3F])
		b = b[3:]
	}
	switch len(b) {
	case 1:
		sb.WriteByte(tbl[b[0]>>2])
		sb.WriteByte(tbl[(b[0]&0x3)<<4])
		sb.WriteString("==")
	case 2:
		sb.WriteByte(tbl[b[0]>>2])
		sb.WriteByte(tbl[(b[0]&0x3)<<4|b[1]>>4])
		sb.WriteByte(tbl[(b[1]&0xF)<<2])
		sb.WriteString("=")
	}
	return sb.String()
}

func TestVerifyTrustedRejectsUntrustedChain(t *testing.T) {
	f := newFixture(t)
	// Mallory self-issues a credential and signs an advertisement. The
	// structural check passes, but the trusted check must fail.
	mID, _ := keys.CBID(mallory.Public())
	selfCred, err := cred.Issue(mallory, mID, mID, "mallory", cred.RoleClient, mallory.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	doc := pipeAdv()
	if err := Sign(doc, mallory, selfCred); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if _, err := Verify(doc); err != nil {
		t.Fatalf("structural Verify should pass: %v", err)
	}
	if _, err := VerifyTrusted(doc, f.ts, time.Now()); err == nil {
		t.Fatal("VerifyTrusted accepted self-issued chain")
	}
}

func TestVerifyTrustedRejectsCBIDMismatch(t *testing.T) {
	f := newFixture(t)
	// Broker (legitimately credentialed) issues a credential whose
	// subject ID does not match the enclosed key: receivers must reject.
	badCred, err := cred.Issue(brokerKP, f.br.Subject, "urn:jxta:cbid-0000000000000000000000000000dead", "alice", cred.RoleClient, clientKP.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	doc := pipeAdv()
	if err := Sign(doc, clientKP, badCred, f.br); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if _, err := VerifyTrusted(doc, f.ts, time.Now()); err == nil {
		t.Fatal("VerifyTrusted accepted CBID mismatch")
	}
}

func TestSignReplacesExistingSignature(t *testing.T) {
	f := newFixture(t)
	doc := pipeAdv()
	if err := Sign(doc, clientKP, f.cl, f.br); err != nil {
		t.Fatal(err)
	}
	doc.Child("Name").SetText("msg/alice-v2")
	if err := Sign(doc, clientKP, f.cl, f.br); err != nil {
		t.Fatalf("re-Sign: %v", err)
	}
	if got := len(doc.ChildrenNamed(SignatureElement)); got != 1 {
		t.Fatalf("signature elements = %d, want 1", got)
	}
	if _, err := VerifyTrusted(doc, f.ts, time.Now()); err != nil {
		t.Fatalf("VerifyTrusted after re-sign: %v", err)
	}
}

func TestSignErrors(t *testing.T) {
	f := newFixture(t)
	if err := Sign(nil, clientKP, f.cl); err == nil {
		t.Fatal("Sign(nil) succeeded")
	}
	if err := Sign(pipeAdv(), clientKP); err == nil {
		t.Fatal("Sign without credential succeeded")
	}
	// Credential key mismatch: signing key is mallory's but credential
	// belongs to alice.
	if err := Sign(pipeAdv(), mallory, f.cl); err == nil {
		t.Fatal("Sign with mismatched credential succeeded")
	}
}

func TestVerifyErrors(t *testing.T) {
	f := newFixture(t)
	if _, err := Verify(nil); err == nil {
		t.Fatal("Verify(nil) succeeded")
	}
	if _, err := Verify(pipeAdv()); err != ErrNoSignature {
		t.Fatal("Verify(unsigned) did not return ErrNoSignature")
	}

	doc := pipeAdv()
	if err := Sign(doc, clientKP, f.cl, f.br); err != nil {
		t.Fatal(err)
	}
	alg := doc.Child(SignatureElement).Child("SignedInfo").Child("SignatureMethod")
	alg.SetText("rsa-md5") // downgrade attempt
	if _, err := Verify(doc); err != ErrAlgorithm {
		t.Fatalf("Verify with downgraded algorithm = %v, want ErrAlgorithm", err)
	}
}

func TestVerifyNoKeyInfo(t *testing.T) {
	f := newFixture(t)
	doc := pipeAdv()
	if err := Sign(doc, clientKP, f.cl, f.br); err != nil {
		t.Fatal(err)
	}
	doc.Child(SignatureElement).RemoveChildren("KeyInfo")
	if _, err := Verify(doc); err != ErrNoKeyInfo {
		t.Fatalf("Verify = %v, want ErrNoKeyInfo", err)
	}
}

func TestSignedDocumentSurvivesWire(t *testing.T) {
	// Serialize → parse → verify: what actually happens when an
	// advertisement crosses the network.
	f := newFixture(t)
	doc := pipeAdv()
	if err := Sign(doc, clientKP, f.cl, f.br); err != nil {
		t.Fatal(err)
	}
	wire := doc.Canonical()
	back, err := xmldoc.ParseBytes(wire)
	if err != nil {
		t.Fatalf("ParseBytes: %v", err)
	}
	if _, err := VerifyTrusted(back, f.ts, time.Now()); err != nil {
		t.Fatalf("VerifyTrusted after wire round trip: %v", err)
	}
}

func TestStripSignature(t *testing.T) {
	f := newFixture(t)
	doc := pipeAdv()
	if err := Sign(doc, clientKP, f.cl, f.br); err != nil {
		t.Fatal(err)
	}
	bare := StripSignature(doc)
	if IsSigned(bare) {
		t.Fatal("StripSignature left a signature")
	}
	if !IsSigned(doc) {
		t.Fatal("StripSignature mutated the original")
	}
}
