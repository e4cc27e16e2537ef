package keys

import (
	"bytes"
	"errors"
	"testing"
)

// TestAgreementKeyDerivedFromIdentity: a key pair's agreement key is a
// function of its RSA private key alone — the same after a trip through
// the keystore's PEM, different for another key pair — and its public
// half carries it.
func TestAgreementKeyDerivedFromIdentity(t *testing.T) {
	pemBytes, err := testKeys.a.MarshalPEM()
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := ParseKeyPairPEM(pemBytes)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := testKeys.a.Public().AgreementShare()
	if !ok {
		t.Fatal("a key pair's public half carries no agreement key")
	}
	if again, _ := reloaded.Public().AgreementShare(); again != a {
		t.Fatalf("agreement key after a PEM round trip %x, before %x", again, a)
	}
	if b, _ := testKeys.b.Public().AgreementShare(); b == a {
		t.Fatal("two key pairs derived the same agreement key")
	}
	if !bytes.Equal(testKeys.a.agreement().Share(), a[:]) {
		t.Fatal("the public half's share is not the derived key's")
	}
}

// TestKeyPairAgreeWithCertifiedShare: X25519 with a key pair's agreement
// key gives what an ephemeral key computes against the share its public
// half carries, and a share of small order is refused as
// AgreementKey.Agree refuses it.
func TestKeyPairAgreeWithCertifiedShare(t *testing.T) {
	e, err := NewAgreementKey()
	if err != nil {
		t.Fatal(err)
	}
	share, _ := testKeys.a.Public().AgreementShare()
	want, err := e.Agree(share[:])
	if err != nil {
		t.Fatal(err)
	}
	got, err := testKeys.a.Agree(e.Share())
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("KeyPair.Agree = (%x, %v), the ephemeral end computed %x", got, err, want)
	}
	for _, bad := range [][]byte{make([]byte, ShareSize), append([]byte{1}, make([]byte, ShareSize-1)...), make([]byte, ShareSize-1)} {
		if _, err := testKeys.a.Agree(bad); !errors.Is(err, ErrAgree) {
			t.Errorf("share %x: err = %v, want ErrAgree", bad, err)
		}
	}
}

// wrapFixture wraps a fresh content key to testKeys.b under a fresh
// ephemeral key.
func wrapFixture(t *testing.T) (cek, eph, wrap []byte) {
	t.Helper()
	cek, err := NewContentKey()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewAgreementKey()
	if err != nil {
		t.Fatal(err)
	}
	wrap, err = e.WrapTo(nil, cek, testKeys.b.Public())
	if err != nil {
		t.Fatal(err)
	}
	if len(wrap) != WrapSize {
		t.Fatalf("wrap is %d bytes, want %d", len(wrap), WrapSize)
	}
	return cek, e.Share(), wrap
}

func TestWrapRoundTrip(t *testing.T) {
	cek, eph, wrap := wrapFixture(t)
	unwraps := testKeys.b.UnwrapCalls()
	got, err := testKeys.b.UnwrapFrom(eph, wrap)
	if err != nil || !bytes.Equal(got[:], cek) {
		t.Fatalf("UnwrapFrom = %x, %v; want %x", got, err, cek)
	}
	if testKeys.b.UnwrapCalls() != unwraps {
		t.Fatal("UnwrapFrom counted as an RSA unwrap")
	}
	if _, err := testKeys.a.UnwrapFrom(eph, wrap); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("another key pair's UnwrapFrom = %v, want ErrDecrypt", err)
	}
}

// TestUnwrapRefusesTamperedWraps: every byte of the wrap is under the
// tag, the ephemeral share is in the key derivation and under the tag,
// and a share of small order or the wrong length never reaches either.
func TestUnwrapRefusesTamperedWraps(t *testing.T) {
	_, eph, wrap := wrapFixture(t)
	other, err := NewAgreementKey()
	if err != nil {
		t.Fatal(err)
	}
	flip := func(b []byte, i int) []byte {
		b = bytes.Clone(b)
		b[i] ^= 0x01
		return b
	}
	for _, tc := range []struct {
		name      string
		eph, wrap []byte
	}{
		{"masked key byte flipped", eph, flip(wrap, 3)},
		{"tag byte flipped", eph, flip(wrap, WrapSize-1)},
		{"another ephemeral share", other.Share(), wrap},
		{"ephemeral share bit flipped", flip(eph, 7), wrap},
		{"ephemeral share u = 0", make([]byte, ShareSize), wrap},
		{"ephemeral share u = 1", append([]byte{1}, make([]byte, ShareSize-1)...), wrap},
		{"short ephemeral share", eph[:ShareSize-1], wrap},
		{"short wrap", eph, wrap[:WrapSize-1]},
	} {
		if _, err := testKeys.b.UnwrapFrom(tc.eph, tc.wrap); !errors.Is(err, ErrDecrypt) {
			t.Errorf("%s: UnwrapFrom = %v, want ErrDecrypt", tc.name, err)
		}
	}
}

// TestWrapRefusesKeysWithoutUsableShare: a key that carries no agreement
// key, or one of small order, gets no wrap.
func TestWrapRefusesKeysWithoutUsableShare(t *testing.T) {
	cek, err := NewContentKey()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewAgreementKey()
	if err != nil {
		t.Fatal(err)
	}
	bare := testKeys.b.Public().WithShare(nil)
	if err := bare.CheckAgreementKey(); !errors.Is(err, ErrNoAgreementKey) {
		t.Fatalf("CheckAgreementKey without a share = %v, want ErrNoAgreementKey", err)
	}
	if _, err := e.WrapTo(nil, cek, bare); !errors.Is(err, ErrNoAgreementKey) {
		t.Fatalf("WrapTo a key without a share = %v, want ErrNoAgreementKey", err)
	}
	var lowOrder [ShareSize]byte
	lowOrder[0] = 1
	weak := testKeys.b.Public().WithShare(&lowOrder)
	if err := weak.CheckAgreementKey(); !errors.Is(err, ErrAgree) {
		t.Fatalf("CheckAgreementKey of a small-order share = %v, want ErrAgree", err)
	}
	if _, err := e.WrapTo(nil, cek, weak); !errors.Is(err, ErrAgree) {
		t.Fatalf("WrapTo a small-order share = %v, want ErrAgree", err)
	}
	if err := testKeys.b.Public().CheckAgreementKey(); err != nil {
		t.Fatalf("CheckAgreementKey of a derived share = %v", err)
	}
}

// TestWrapAllocations: what wrapping and unwrapping cost besides the
// X25519 call itself — no cipher key schedule, no HMAC state, no buffer.
func TestWrapAllocations(t *testing.T) {
	cek, eph, wrap := wrapFixture(t)
	e, err := NewAgreementKey()
	if err != nil {
		t.Fatal(err)
	}
	to := testKeys.b.Public()
	dst := make([]byte, 0, WrapSize)
	if n := testing.AllocsPerRun(50, func() { _, _ = e.WrapTo(dst, cek, to) }); n > 1 {
		t.Errorf("WrapTo allocates %v times, want at most 1 (the X25519 output)", n)
	}
	if n := testing.AllocsPerRun(50, func() { _, _ = testKeys.b.UnwrapFrom(eph, wrap) }); n > 3 {
		t.Errorf("UnwrapFrom allocates %v times, want at most 3 (the ephemeral share as crypto/ecdh holds it, the X25519 output)", n)
	}
}

// BenchmarkRoundWrap prices one recipient's share of a round's key wrap,
// both ways, against the RSA-OAEP wrap it replaced: the sender's wrap and
// the recipient's unwrap.
func BenchmarkRoundWrap(b *testing.B) {
	cek, err := NewContentKey()
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewAgreementKey()
	if err != nil {
		b.Fatal(err)
	}
	to := testKeys.b.Public()
	wrap, err := e.WrapTo(nil, cek, to)
	if err != nil {
		b.Fatal(err)
	}
	oaep, err := to.WrapKey(cek)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 0, WrapSize)
	for _, bc := range []struct {
		name string
		run  func() error
	}{
		{"x25519/wrap", func() error { _, err := e.WrapTo(dst, cek, to); return err }},
		{"x25519/unwrap", func() error { _, err := testKeys.b.UnwrapFrom(e.share[:], wrap); return err }},
		{"rsa-oaep/wrap", func() error { _, err := to.WrapKey(cek); return err }},
		{"rsa-oaep/unwrap", func() error { _, err := testKeys.b.UnwrapKey(oaep); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
