package keys

import (
	"bytes"
	"encoding/hex"
	"testing"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func seq(from, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(from + i)
	}
	return b
}

// TestHKDFVectors: RFC 5869 appendix A, the three SHA-256 cases.
func TestHKDFVectors(t *testing.T) {
	for _, tc := range []struct {
		name            string
		ikm, salt, info []byte
		okm             string
	}{
		{"A.1 basic", bytes.Repeat([]byte{0x0b}, 22), seq(0, 13), seq(0xf0, 10),
			"3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"},
		{"A.2 long inputs", seq(0, 80), seq(0x60, 80), seq(0xb0, 80),
			"b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71cc30c58179ec3e87c14c01d5c1f3434f1d87"},
		{"A.3 no salt, no info", bytes.Repeat([]byte{0x0b}, 22), nil, nil,
			"8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"},
	} {
		want := unhex(t, tc.okm)
		got := make([]byte, len(want))
		HKDF(got, tc.ikm, tc.salt, tc.info)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: HKDF = %x, want %x", tc.name, got, want)
		}
	}
}

// TestHKDFAllocatesNothing: the wrap derives a key-encryption key at both
// ends of every relayed delivery and a channel its key once, with salts
// and infos of every length those use, and longer.
func TestHKDFAllocatesNothing(t *testing.T) {
	var out [64]byte
	secret, long := seq(0, 32), seq(0, 300)
	for _, tc := range []struct {
		name       string
		salt, info []byte
	}{
		{"wrap", seq(1, ShareSize), seq(2, len(wrapLabel)+2*ShareSize+AEADNonceSize)},
		{"channel", seq(3, 16), seq(4, 300)},
		{"salt over a block", long, nil},
	} {
		if n := testing.AllocsPerRun(100, func() { HKDF(out[:], secret, tc.salt, tc.info) }); n != 0 {
			t.Errorf("%s: HKDF allocates %v times per call, want 0", tc.name, n)
		}
	}
}

// TestX25519Vectors: RFC 7748 section 6.1 — both sides' public shares
// from their scalars, and the one secret both derive.
func TestX25519Vectors(t *testing.T) {
	alice, err := AgreementKeyFrom(unhex(t, "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"))
	if err != nil {
		t.Fatal(err)
	}
	bob, err := AgreementKeyFrom(unhex(t, "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := alice.Share(), unhex(t, "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"); !bytes.Equal(got, want) {
		t.Fatalf("alice's share = %x, want %x", got, want)
	}
	if got, want := bob.Share(), unhex(t, "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"); !bytes.Equal(got, want) {
		t.Fatalf("bob's share = %x, want %x", got, want)
	}
	want := unhex(t, "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742")
	for _, side := range []struct {
		key  *AgreementKey
		peer []byte
	}{{alice, bob.Share()}, {bob, alice.Share()}} {
		got, err := side.key.Agree(side.peer)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Agree = %x, %v; want %x", got, err, want)
		}
	}
}

// TestAgreeRefusesBadShares: a share of the wrong length, and the
// low-order points that force an all-zero secret whatever the scalar.
func TestAgreeRefusesBadShares(t *testing.T) {
	key, err := NewAgreementKey()
	if err != nil {
		t.Fatal(err)
	}
	if len(key.Share()) != ShareSize {
		t.Fatalf("share is %d bytes, want %d", len(key.Share()), ShareSize)
	}
	for _, share := range [][]byte{
		nil,
		make([]byte, ShareSize-1),
		make([]byte, ShareSize+1),
		make([]byte, ShareSize), // u = 0
		append([]byte{1}, make([]byte, ShareSize-1)...), // u = 1
	} {
		if secret, err := key.Agree(share); err == nil {
			t.Errorf("Agree(%x) = %x, want an error", share, secret)
		}
	}
}
