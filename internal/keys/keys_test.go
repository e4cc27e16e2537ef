package keys

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// testKeys caches generated key pairs so the suite does not pay RSA
// generation per test.
var testKeys = struct {
	a, b *KeyPair
}{mustKey(1), mustKey(2)}

func mustKey(seed int64) *KeyPair {
	kp, err := KeyPairFrom(rand.New(rand.NewSource(seed)), DefaultRSABits)
	if err != nil {
		panic(err)
	}
	return kp
}

func TestKeySizeFloor(t *testing.T) {
	if _, err := KeyPairBits(512); err == nil {
		t.Fatal("KeyPairBits(512) succeeded, want error")
	}
	if _, err := KeyPairFrom(rand.New(rand.NewSource(9)), 768); err == nil {
		t.Fatal("KeyPairFrom(768) succeeded, want error")
	}
}

func TestSignVerify(t *testing.T) {
	msg := []byte("advertisement body")
	sig, err := testKeys.a.Sign(msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := testKeys.a.Public().Verify(msg, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyRejectsTamper(t *testing.T) {
	msg := []byte("login request")
	sig, err := testKeys.a.Sign(msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	tampered := append([]byte(nil), msg...)
	tampered[0] ^= 0x01
	if err := testKeys.a.Public().Verify(tampered, sig); err == nil {
		t.Fatal("Verify accepted tampered message")
	}
	badSig := append([]byte(nil), sig...)
	badSig[10] ^= 0x80
	if err := testKeys.a.Public().Verify(msg, badSig); err == nil {
		t.Fatal("Verify accepted tampered signature")
	}
	if err := testKeys.b.Public().Verify(msg, sig); err == nil {
		t.Fatal("Verify accepted signature under wrong key")
	}
}

func TestEncryptDecrypt(t *testing.T) {
	plain := []byte("username|password|pk")
	env, err := testKeys.a.Public().Encrypt(plain)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	got, err := testKeys.a.Decrypt(env)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatalf("Decrypt = %q, want %q", got, plain)
	}
}

func TestDecryptWrongKey(t *testing.T) {
	env, err := testKeys.a.Public().Encrypt([]byte("secret"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	if _, err := testKeys.b.Decrypt(env); err == nil {
		t.Fatal("Decrypt with wrong key succeeded")
	}
}

func TestDecryptTamperedCiphertext(t *testing.T) {
	env, err := testKeys.a.Public().Encrypt([]byte("secret"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	env.Ciphertext[0] ^= 0xFF
	if _, err := testKeys.a.Decrypt(env); err == nil {
		t.Fatal("Decrypt accepted tampered ciphertext (GCM must fail)")
	}
}

func TestDecryptNil(t *testing.T) {
	if _, err := testKeys.a.Decrypt(nil); err == nil {
		t.Fatal("Decrypt(nil) succeeded")
	}
}

func TestEnvelopeMarshalRoundTrip(t *testing.T) {
	env, err := testKeys.a.Public().Encrypt([]byte("payload"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	wire := env.Bytes()
	back, err := ParseEnvelope(wire)
	if err != nil {
		t.Fatalf("ParseEnvelope: %v", err)
	}
	if !reflect.DeepEqual(back, env) {
		t.Fatal("envelope round trip mismatch")
	}
	if len(wire) != EnvelopePrefix+len("payload")+AEADOverhead {
		t.Fatalf("an envelope of %d bytes for 7, want the fields, the plaintext and the tag", len(wire))
	}
	got, err := testKeys.a.Decrypt(back)
	if err != nil || string(got) != "payload" {
		t.Fatalf("Decrypt after round trip = %q, %v", got, err)
	}
}

func TestParseEnvelopeErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":              nil,
		"short":              {0, 0},
		"fields only":        make([]byte, EnvelopePrefix),
		"shorter than a tag": make([]byte, EnvelopePrefix+AEADOverhead-1),
	}
	for name, data := range cases {
		if _, err := ParseEnvelope(data); err == nil {
			t.Errorf("ParseEnvelope(%s) succeeded, want error", name)
		}
	}
}

func TestPublicKeyDERRoundTrip(t *testing.T) {
	pub := testKeys.a.Public()
	der, err := pub.MarshalDER()
	if err != nil {
		t.Fatalf("MarshalDER: %v", err)
	}
	back, err := ParsePublicDER(der)
	if err != nil {
		t.Fatalf("ParsePublicDER: %v", err)
	}
	// DER carries the RSA key alone: the same identity, no agreement key.
	if !pub.SameIdentity(back) || pub.Equal(back) {
		t.Fatal("DER round trip: want the same RSA key without the agreement key")
	}
	share, _ := pub.AgreementShare()
	if !pub.Equal(back.WithShare(&share)) {
		t.Fatal("DER round trip key, given the share, differs")
	}
}

func TestPublicKeyBase64RoundTrip(t *testing.T) {
	pub := testKeys.a.Public()
	b64, err := pub.MarshalBase64()
	if err != nil {
		t.Fatalf("MarshalBase64: %v", err)
	}
	share := pub.ShareBase64()
	back, err := ParsePublicBase64(b64, share)
	if err != nil {
		t.Fatalf("ParsePublicBase64: %v", err)
	}
	if !pub.Equal(back) {
		t.Fatal("base64 round trip key mismatch")
	}
	if got, _ := back.MarshalBase64(); got != b64 || back.ShareBase64() != share {
		t.Fatal("base64 round trip does not re-encode to the same text")
	}
	other := testKeys.b.Public().ShareBase64()
	for _, tc := range []struct{ name, key, share string }{
		{"invalid base64", "!!not-base64!!", ""},
		{"non-key DER", "AAAA", ""},
		{"key split by a newline", b64[:8] + "\n" + b64[8:], ""},
		{"share of 31 bytes", b64, base64.RawStdEncoding.EncodeToString(make([]byte, ShareSize-1))},
		{"share of 33 bytes", b64, base64.RawStdEncoding.EncodeToString(make([]byte, ShareSize+1))},
		{"share padded", b64, base64.StdEncoding.EncodeToString(make([]byte, ShareSize))},
		{"share with its spare bits set", b64, other[:len(other)-1] + "B"},
	} {
		if _, err := ParsePublicBase64(tc.key, tc.share); err == nil {
			t.Errorf("ParsePublicBase64 accepted a %s", tc.name)
		}
	}
}

func TestKeyPairPEMRoundTrip(t *testing.T) {
	pemBytes, err := testKeys.a.MarshalPEM()
	if err != nil {
		t.Fatalf("MarshalPEM: %v", err)
	}
	back, err := ParseKeyPairPEM(pemBytes)
	if err != nil {
		t.Fatalf("ParseKeyPairPEM: %v", err)
	}
	if !back.Public().Equal(testKeys.a.Public()) {
		t.Fatal("PEM round trip key mismatch")
	}
	if _, err := ParseKeyPairPEM([]byte("garbage")); err == nil {
		t.Fatal("ParseKeyPairPEM accepted garbage")
	}
}

func TestCBIDDeterministic(t *testing.T) {
	id1, err := CBID(testKeys.a.Public())
	if err != nil {
		t.Fatalf("CBID: %v", err)
	}
	id2, err := CBID(testKeys.a.Public())
	if err != nil {
		t.Fatalf("CBID: %v", err)
	}
	if id1 != id2 {
		t.Fatalf("CBID not deterministic: %q vs %q", id1, id2)
	}
	if !IsCBID(id1) {
		t.Fatalf("IsCBID(%q) = false", id1)
	}
}

func TestVerifyCBID(t *testing.T) {
	id, err := CBID(testKeys.a.Public())
	if err != nil {
		t.Fatalf("CBID: %v", err)
	}
	if err := VerifyCBID(id, testKeys.a.Public()); err != nil {
		t.Fatalf("VerifyCBID(own key): %v", err)
	}
	if err := VerifyCBID(id, testKeys.b.Public()); err == nil {
		t.Fatal("VerifyCBID accepted wrong key")
	}
	if err := VerifyCBID(LegacyPeerID("alice"), testKeys.a.Public()); err == nil {
		t.Fatal("VerifyCBID accepted legacy (non-CBID) identifier")
	}
}

func TestLegacyPeerIDStable(t *testing.T) {
	if LegacyPeerID("alice") != LegacyPeerID("alice") {
		t.Fatal("LegacyPeerID not deterministic")
	}
	if LegacyPeerID("alice") == LegacyPeerID("bob") {
		t.Fatal("LegacyPeerID collision for distinct names")
	}
	if IsCBID(LegacyPeerID("alice")) {
		t.Fatal("legacy ID must not be a CBID")
	}
}

// TestPBKDF2Vector checks RFC 6070-style test vectors adapted to
// HMAC-SHA256 (vectors from the PBKDF2-HMAC-SHA256 test suite widely
// used to validate implementations).
func TestPBKDF2Vector(t *testing.T) {
	got := PBKDF2([]byte("password"), []byte("salt"), 1, 32)
	want, _ := hex.DecodeString("120fb6cffcf8b32c43e7225256c4f837a86548c92ccc35480805987cb70be17b")
	if !bytes.Equal(got, want) {
		t.Fatalf("PBKDF2 iter=1 = %x, want %x", got, want)
	}
	got = PBKDF2([]byte("password"), []byte("salt"), 4096, 32)
	want, _ = hex.DecodeString("c5e478d59288c841aa530db6845c4c8d962893a001ce4e11a4963873aa98134a")
	if !bytes.Equal(got, want) {
		t.Fatalf("PBKDF2 iter=4096 = %x, want %x", got, want)
	}
}

func TestPBKDF2KeyLengths(t *testing.T) {
	for _, n := range []int{1, 16, 31, 32, 33, 64, 100} {
		dk := PBKDF2([]byte("pw"), []byte("na"), 10, n)
		if len(dk) != n {
			t.Fatalf("PBKDF2 keyLen %d produced %d bytes", n, len(dk))
		}
	}
	// Prefix property: longer outputs extend shorter ones.
	short := PBKDF2([]byte("pw"), []byte("na"), 10, 16)
	long := PBKDF2([]byte("pw"), []byte("na"), 10, 48)
	if !bytes.Equal(short, long[:16]) {
		t.Fatal("PBKDF2 outputs are not prefix-consistent")
	}
}

func TestRandomBytes(t *testing.T) {
	a, err := RandomBytes(32)
	if err != nil {
		t.Fatalf("RandomBytes: %v", err)
	}
	b, err := RandomBytes(32)
	if err != nil {
		t.Fatalf("RandomBytes: %v", err)
	}
	if len(a) != 32 || len(b) != 32 {
		t.Fatal("wrong length")
	}
	if bytes.Equal(a, b) {
		t.Fatal("two random draws identical")
	}
}

func TestConstantTimeEqual(t *testing.T) {
	if !ConstantTimeEqual([]byte("abc"), []byte("abc")) {
		t.Fatal("equal strings reported unequal")
	}
	if ConstantTimeEqual([]byte("abc"), []byte("abd")) {
		t.Fatal("unequal strings reported equal")
	}
}

func TestPropertySignVerify(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	prop := func(msg []byte) bool {
		sig, err := testKeys.a.Sign(msg)
		if err != nil {
			return false
		}
		return testKeys.a.Public().Verify(msg, sig) == nil
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEncryptDecrypt(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15}
	prop := func(msg []byte) bool {
		env, err := testKeys.b.Public().Encrypt(msg)
		if err != nil {
			return false
		}
		got, err := testKeys.b.Decrypt(env)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEnvelopeWire(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 50,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			mk := func(n int) []byte {
				b := make([]byte, n)
				r.Read(b)
				return b
			}
			vals[0] = reflect.ValueOf(mk(EnvelopePrefix + AEADOverhead + r.Intn(64)))
		},
	}
	prop := func(wire []byte) bool {
		env, err := ParseEnvelope(wire)
		if err != nil {
			return false
		}
		return bytes.Equal(env.Bytes(), wire) &&
			bytes.Equal(slices.Concat(env.Ephemeral, env.Wrap, env.Nonce, env.Ciphertext), wire)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintMatchesSHA256(t *testing.T) {
	pub := testKeys.a.Public()
	der, err := pub.MarshalDER()
	if err != nil {
		t.Fatalf("MarshalDER: %v", err)
	}
	want := sha256.Sum256(der)
	got, err := pub.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	if got != want {
		t.Fatal("fingerprint does not match SHA-256 of DER")
	}
}
