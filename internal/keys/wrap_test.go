package keys

import (
	"bytes"
	"errors"
	"testing"
	"time"
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
// ephemeral key, bound to a fresh nonce.
func wrapFixture(t *testing.T) (cek, eph, nonce, wrap []byte) {
	t.Helper()
	cek, err := NewContentKey()
	if err != nil {
		t.Fatal(err)
	}
	if nonce, err = RandomBytes(AEADNonceSize); err != nil {
		t.Fatal(err)
	}
	e, err := NewAgreementKey()
	if err != nil {
		t.Fatal(err)
	}
	wrap, err = e.WrapTo(nil, cek, testKeys.b.Public(), nonce)
	if err != nil {
		t.Fatal(err)
	}
	if len(wrap) != WrapSize {
		t.Fatalf("wrap is %d bytes, want %d", len(wrap), WrapSize)
	}
	return cek, e.Share(), nonce, wrap
}

func TestWrapRoundTrip(t *testing.T) {
	cek, eph, nonce, wrap := wrapFixture(t)
	got, err := testKeys.b.UnwrapFrom(eph, wrap, nonce)
	if err != nil || !bytes.Equal(got[:], cek) {
		t.Fatalf("UnwrapFrom = %x, %v; want %x", got, err, cek)
	}
	if _, err := testKeys.a.UnwrapFrom(eph, wrap, nonce); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("another key pair's UnwrapFrom = %v, want ErrDecrypt", err)
	}
}

// TestUnwrapRefusesTamperedWraps: every byte of the wrap is under the
// tag, the ephemeral share and the nonce are in the key derivation (the
// share under the tag too), and a share of small order or the wrong
// length never reaches either.
func TestUnwrapRefusesTamperedWraps(t *testing.T) {
	_, eph, nonce, wrap := wrapFixture(t)
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
		name             string
		eph, wrap, nonce []byte
	}{
		{"masked key byte flipped", eph, flip(wrap, 3), nonce},
		{"tag byte flipped", eph, flip(wrap, WrapSize-1), nonce},
		{"another ephemeral share", other.Share(), wrap, nonce},
		{"ephemeral share bit flipped", flip(eph, 7), wrap, nonce},
		{"ephemeral share u = 0", make([]byte, ShareSize), wrap, nonce},
		{"ephemeral share u = 1", append([]byte{1}, make([]byte, ShareSize-1)...), wrap, nonce},
		{"short ephemeral share", eph[:ShareSize-1], wrap, nonce},
		{"short wrap", eph, wrap[:WrapSize-1], nonce},
		{"nonce bit flipped", eph, wrap, flip(nonce, 11)},
		{"short nonce", eph, wrap, nonce[:AEADNonceSize-1]},
	} {
		if _, err := testKeys.b.UnwrapFrom(tc.eph, tc.wrap, tc.nonce); !errors.Is(err, ErrDecrypt) {
			t.Errorf("%s: UnwrapFrom = %v, want ErrDecrypt", tc.name, err)
		}
	}
}

// TestWrapRefusesKeysWithoutUsableShare: a key that carries no agreement
// key, or one of small order, gets no wrap; nor does a nonce of another
// length than the AEAD's.
func TestWrapRefusesKeysWithoutUsableShare(t *testing.T) {
	cek, err := NewContentKey()
	if err != nil {
		t.Fatal(err)
	}
	nonce := make([]byte, AEADNonceSize)
	e, err := NewAgreementKey()
	if err != nil {
		t.Fatal(err)
	}
	bare := testKeys.b.Public().WithShare(nil)
	if err := bare.CheckAgreementKey(); !errors.Is(err, ErrNoAgreementKey) {
		t.Fatalf("CheckAgreementKey without a share = %v, want ErrNoAgreementKey", err)
	}
	if _, err := e.WrapTo(nil, cek, bare, nonce); !errors.Is(err, ErrNoAgreementKey) {
		t.Fatalf("WrapTo a key without a share = %v, want ErrNoAgreementKey", err)
	}
	if _, err := bare.Encrypt([]byte("x")); !errors.Is(err, ErrNoAgreementKey) {
		t.Fatalf("Encrypt to a key without a share = %v, want ErrNoAgreementKey", err)
	}
	var lowOrder [ShareSize]byte
	lowOrder[0] = 1
	weak := testKeys.b.Public().WithShare(&lowOrder)
	if err := weak.CheckAgreementKey(); !errors.Is(err, ErrAgree) {
		t.Fatalf("CheckAgreementKey of a small-order share = %v, want ErrAgree", err)
	}
	if _, err := e.WrapTo(nil, cek, weak, nonce); !errors.Is(err, ErrAgree) {
		t.Fatalf("WrapTo a small-order share = %v, want ErrAgree", err)
	}
	if _, err := weak.Encrypt([]byte("x")); !errors.Is(err, ErrAgree) {
		t.Fatalf("Encrypt to a small-order share = %v, want ErrAgree", err)
	}
	if err := testKeys.b.Public().CheckAgreementKey(); err != nil {
		t.Fatalf("CheckAgreementKey of a derived share = %v", err)
	}
	if _, err := e.WrapTo(nil, cek, testKeys.b.Public(), nonce[1:]); err == nil {
		t.Fatal("WrapTo bound a short nonce")
	}
}

// TestRoundKeyAgreesOncePerPeer: a round key held across rounds performs
// one X25519 per recipient, and the recipient one per round key, however
// many rounds follow: each end counts it in its key pair's AgreeCalls. An
// ephemeral key counts nothing and memoizes nothing. Every round's wrap
// is bound to its own nonce: the same round key wraps the same content
// key to the same recipient differently under another nonce, and a wrap
// unwraps under its own nonce only — memoized agreement or not.
func TestRoundKeyAgreesOncePerPeer(t *testing.T) {
	sender, recipient := mustKey(3), mustKey(4)
	e, err := sender.NewRoundKey()
	if err != nil {
		t.Fatal(err)
	}
	cek, err := NewContentKey()
	if err != nil {
		t.Fatal(err)
	}
	to := recipient.Public()
	var wraps, nonces [][]byte
	for round := 0; round < 3; round++ {
		nonce, err := RandomBytes(AEADNonceSize)
		if err != nil {
			t.Fatal(err)
		}
		wrap, err := e.WrapTo(nil, cek, to, nonce)
		if err != nil {
			t.Fatal(err)
		}
		got, err := recipient.UnwrapFrom(e.Share(), wrap, nonce)
		if err != nil || !bytes.Equal(got[:], cek) {
			t.Fatalf("round %d: UnwrapFrom = (%x, %v)", round, got, err)
		}
		if s, r := sender.AgreeCalls(), recipient.AgreeCalls(); s != 1 || r != 1 {
			t.Fatalf("after round %d: %d X25519 at the sender and %d at the recipient, want 1 and 1", round, s, r)
		}
		wraps, nonces = append(wraps, wrap), append(nonces, nonce)
	}
	if bytes.Equal(wraps[0], wraps[1]) {
		t.Fatal("one round key wrapped one content key alike under two nonces")
	}
	if _, err := recipient.UnwrapFrom(e.Share(), wraps[0], nonces[1]); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("a wrap under another round's nonce = %v, want ErrDecrypt", err)
	}

	fresh, err := NewAgreementKey()
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := fresh.WrapTo(nil, cek, to, nonces[0]); err != nil {
			t.Fatal(err)
		}
	}
	if fresh.memo != nil || sender.AgreeCalls() != 1 {
		t.Fatal("an ephemeral key memoized or counted its agreements")
	}
}

// TestUnwrapMemoCapped: strangers' wraps under 10,000 distinct ephemeral
// shares, every one of them valid, leave the recipient's memo at its cap;
// a share of small order enters it at no point; and the honest wrap whose
// share was evicted still unwraps, at the cost of one X25519 again.
func TestUnwrapMemoCapped(t *testing.T) {
	recipient := mustKey(5)
	cek, _, nonce, _ := wrapFixture(t)
	to := recipient.Public()
	honest, err := NewAgreementKey()
	if err != nil {
		t.Fatal(err)
	}
	honestWrap, err := honest.WrapTo(nil, cek, to, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recipient.UnwrapFrom(honest.Share(), honestWrap, nonce); err != nil {
		t.Fatal(err)
	}
	memo := recipient.agreement().memo
	for i := 0; i < 10_000; i++ {
		stranger, err := NewAgreementKey()
		if err != nil {
			t.Fatal(err)
		}
		wrap, err := stranger.WrapTo(nil, cek, to, nonce)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := recipient.UnwrapFrom(stranger.Share(), wrap, nonce); err != nil {
			t.Fatal(err)
		}
		if _, err := recipient.UnwrapFrom(make([]byte, ShareSize), wrap, nonce); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("a share of small order unwrapped: %v", err)
		}
	}
	if n := memo.Len(); n != agreeMemoCap {
		t.Fatalf("recipient memo holds %d agreements after 10,000 strangers, want its cap %d", n, agreeMemoCap)
	}
	var zero [ShareSize]byte
	if _, ok := memo.Get(zero, time.Time{}); ok {
		t.Fatal("a share of small order was memoized")
	}
	before := recipient.AgreeCalls()
	if got, err := recipient.UnwrapFrom(honest.Share(), honestWrap, nonce); err != nil || !bytes.Equal(got[:], cek) {
		t.Fatalf("the honest wrap after the flood: (%x, %v)", got, err)
	}
	if n := recipient.AgreeCalls() - before; n != 1 {
		t.Fatalf("the evicted honest share cost %d X25519, want 1", n)
	}
}

// TestWrapAllocations: what wrapping and unwrapping cost besides the
// X25519 call itself — no cipher key schedule, no HMAC state, no buffer —
// and what they cost once the X25519 is memoized: nothing at either end.
// A wrap whose tag fails is refused for the price of its X25519 and
// memoizes nothing.
func TestWrapAllocations(t *testing.T) {
	cek, eph, nonce, wrap := wrapFixture(t)
	e, err := NewAgreementKey()
	if err != nil {
		t.Fatal(err)
	}
	held, err := testKeys.a.NewRoundKey()
	if err != nil {
		t.Fatal(err)
	}
	to := testKeys.b.Public()
	dst := make([]byte, 0, WrapSize)
	if n := testing.AllocsPerRun(50, func() { _, _ = e.WrapTo(dst, cek, to, nonce) }); n > 1 {
		t.Errorf("WrapTo allocates %v times, want at most 1 (the X25519 output)", n)
	}
	forged := bytes.Clone(wrap)
	forged[0] ^= 1
	if n := testing.AllocsPerRun(50, func() { _, _ = testKeys.b.UnwrapFrom(eph, forged, nonce) }); n > 3 {
		t.Errorf("UnwrapFrom of a forged wrap allocates %v times, want at most 3 (the ephemeral share as crypto/ecdh holds it, the X25519 output)", n)
	}
	if n := testing.AllocsPerRun(50, func() { _, _ = held.WrapTo(dst, cek, to, nonce) }); n != 0 {
		t.Errorf("WrapTo under a held round key allocates %v times on a memo hit, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { _, _ = testKeys.b.UnwrapFrom(eph, wrap, nonce) }); n != 0 {
		t.Errorf("UnwrapFrom allocates %v times on a memo hit, want 0", n)
	}
}

// BenchmarkRoundWrap prices one recipient's share of a round's key wrap,
// both ways, against the RSA-OAEP wrap it replaced: the sender's wrap and
// the recipient's unwrap, each with its X25519 and with it memoized (a
// round key held across rounds, a recipient that has seen that key
// before). The unmemoized unwrap includes the memo's insert.
func BenchmarkRoundWrap(b *testing.B) {
	cek, err := NewContentKey()
	if err != nil {
		b.Fatal(err)
	}
	nonce := make([]byte, AEADNonceSize)
	e, err := NewAgreementKey()
	if err != nil {
		b.Fatal(err)
	}
	held, err := testKeys.a.NewRoundKey()
	if err != nil {
		b.Fatal(err)
	}
	to := testKeys.b.Public()
	wrap, err := e.WrapTo(nil, cek, to, nonce)
	if err != nil {
		b.Fatal(err)
	}
	oaep, err := to.WrapKey(cek)
	if err != nil {
		b.Fatal(err)
	}
	own := testKeys.b.agreement()
	dst := make([]byte, 0, WrapSize)
	for _, bc := range []struct {
		name string
		run  func() error
	}{
		{"x25519/wrap", func() error { _, err := e.WrapTo(dst, cek, to, nonce); return err }},
		{"x25519/wrap-memoized", func() error { _, err := held.WrapTo(dst, cek, to, nonce); return err }},
		{"x25519/unwrap", func() error {
			own.memo.Purge()
			_, err := testKeys.b.UnwrapFrom(e.share[:], wrap, nonce)
			return err
		}},
		{"x25519/unwrap-memoized", func() error { _, err := testKeys.b.UnwrapFrom(e.share[:], wrap, nonce); return err }},
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
