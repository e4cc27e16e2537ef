package keys

import (
	"bytes"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"fmt"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/perfgate"
)

func derOf(t testing.TB, kp *KeyPair) []byte {
	t.Helper()
	der, err := kp.Public().MarshalDER()
	if err != nil {
		t.Fatal(err)
	}
	return der
}

// parseUnmemoized is ParsePublicDER as it reads a key it has not seen: the
// reference every answer of the memo is held to.
func parseUnmemoized(der []byte) (*rsa.PublicKey, error) {
	key, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, err
	}
	pub, ok := key.(*rsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("not an RSA key")
	}
	return pub, nil
}

// TestParsedKeyOneByteOffParsedAfresh: with a key in the memo, every DER
// one byte off it is parsed afresh — refused exactly where a parse
// without the memo refuses it, and otherwise a key of its own bytes —
// and the memoized key is answered only for its own bytes, even when
// another key sits under their digest.
func TestParsedKeyOneByteOffParsedAfresh(t *testing.T) {
	der := derOf(t, testKeys.a)
	memoized, err := ParsePublicDER(der)
	if err != nil {
		t.Fatal(err)
	}
	for i := range der {
		off := bytes.Clone(der)
		off[i] ^= 0x01
		want, wantErr := parseUnmemoized(off)
		got, err := ParsePublicDER(off)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("byte %d: ParsePublicDER returned %v, a parse without the memo %v", i, err, wantErr)
		}
		if err != nil {
			continue
		}
		if got == memoized || !got.pub.Equal(want) {
			t.Fatalf("byte %d: answered the memoized key, or another than its bytes spell", i)
		}
		if fp, _ := got.Fingerprint(); fp != sha256.Sum256(off) {
			t.Fatalf("byte %d: the key's fingerprint is not its bytes' digest", i)
		}
	}
	if again, err := ParsePublicDER(der); err != nil || again != memoized {
		t.Fatalf("the memoized key's own bytes: %v, shared %v", err, again == memoized)
	}

	// Another key under b's digest, as if the two collided: b's bytes
	// are parsed, and the memo then holds b's own key.
	other := derOf(t, testKeys.b)
	parsedKeys.Put(sha256.Sum256(other), memoized, time.Time{})
	got, err := ParsePublicDER(other)
	if err != nil || got == memoized || !got.SameIdentity(testKeys.b.Public()) {
		t.Fatalf("bytes whose digest names another key: %v, answered that key %v", err, got == memoized)
	}
	if again, _ := ParsePublicDER(other); again != got {
		t.Fatal("the memo did not keep the key parsed in place of the other")
	}
}

// TestParsedKeyOwnsItsBytes: a key keeps a copy of the bytes it was
// parsed from, so the caller overwriting its buffer changes neither the
// key nor what the memo answers for those bytes.
func TestParsedKeyOwnsItsBytes(t *testing.T) {
	kp := mustKey(31)
	der := derOf(t, kp)
	buf := bytes.Clone(der)
	key, err := ParsePublicDER(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	if enc, _ := key.MarshalDER(); !bytes.Equal(enc, der) {
		t.Fatal("overwriting the parsed buffer changed the key's encoding")
	}
	if fp, _ := key.Fingerprint(); fp != sha256.Sum256(der) {
		t.Fatal("overwriting the parsed buffer changed the key's fingerprint")
	}
	again, err := ParsePublicDER(der)
	if err != nil || again != key || !again.SameIdentity(kp.Public()) {
		t.Fatalf("the key's bytes after its buffer was overwritten: %v, memoized %v", err, again == key)
	}
	if _, err := ParsePublicDER(buf); err == nil {
		t.Fatal("the overwritten buffer parsed")
	}
}

// TestParsedKeysBounded: a flood of distinct keys — one modulus with its
// last two bytes counted up — leaves the memo at its capacity, and a key
// it evicted parses again.
func TestParsedKeysBounded(t *testing.T) {
	kp := mustKey(32)
	der := derOf(t, kp)
	modulus := kp.priv.N.Bytes()
	at := bytes.Index(der, modulus)
	if at < 0 {
		t.Fatal("no modulus in the DER")
	}
	tail := at + len(modulus) - 2
	first, err := ParsePublicDER(der)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < parsedKeysCap+parsedKeysCap/2; i++ {
		flood := bytes.Clone(der)
		flood[tail], flood[tail+1] = byte(i>>8), byte(i)
		if _, err := ParsePublicDER(flood); err != nil {
			t.Fatalf("flood key %d: %v", i, err)
		}
		if n := parsedKeys.Len(); n > parsedKeysCap {
			t.Fatalf("the memo holds %d keys, capacity %d", n, parsedKeysCap)
		}
	}
	again, err := ParsePublicDER(der)
	if err != nil || !again.SameIdentity(first) {
		t.Fatalf("a key the flood evicted: %v", err)
	}
}

// TestParsedKeysConcurrent: goroutines parsing the same keys and keys
// of their own at once, while the memo evicts, each get the key their
// bytes spell.
func TestParsedKeysConcurrent(t *testing.T) {
	shared := [][]byte{derOf(t, testKeys.a), derOf(t, testKeys.b)}
	kp := mustKey(33)
	der := derOf(t, kp)
	at := bytes.Index(der, kp.priv.N.Bytes()) + len(kp.priv.N.Bytes()) - 2
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < parsedKeysCap/4; i++ {
				own := bytes.Clone(der)
				own[at], own[at+1] = byte(g), byte(i)
				for _, in := range [][]byte{shared[i%2], own} {
					key, err := ParsePublicDER(in)
					if err != nil {
						t.Error(err)
						return
					}
					if fp, _ := key.Fingerprint(); fp != sha256.Sum256(in) {
						t.Errorf("goroutine %d: a key whose fingerprint is not its bytes' digest", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSameIdentityAgreesWithEqual: SameIdentity, by RSA key and then by
// fingerprint, answers what rsa.PublicKey.Equal answers for every pair of
// wrappers — a key pair's own, with and without a share, parsed from DER,
// read back from PEM, another key's, nil — and allocates nothing.
func TestSameIdentityAgreesWithEqual(t *testing.T) {
	a, b := testKeys.a, testKeys.b
	share, _ := a.Public().AgreementShare()
	parsedA, err := ParsePublicDER(derOf(t, a))
	if err != nil {
		t.Fatal(err)
	}
	parsedB, err := ParsePublicDER(derOf(t, b))
	if err != nil {
		t.Fatal(err)
	}
	pemA, err := a.MarshalPEM()
	if err != nil {
		t.Fatal(err)
	}
	reread, err := ParseKeyPairPEM(pemA)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]*PublicKey{
		"a.Public":                a.Public(),
		"a.Public.WithShare(nil)": a.Public().WithShare(nil),
		"a parsed":                parsedA,
		"a parsed.WithShare":      parsedA.WithShare(&share),
		"a read from PEM":         reread.Public(),
		"b.Public":                b.Public(),
		"b parsed":                parsedB,
		"nil":                     nil,
	}
	for xn, x := range keys {
		for yn, y := range keys {
			want := x == y
			if x != nil && y != nil {
				want = x.pub.Equal(y.pub)
			}
			if got := x.SameIdentity(y); got != want {
				t.Errorf("(%s).SameIdentity(%s) = %v, rsa.PublicKey.Equal %v", xn, yn, got, want)
			}
		}
	}
	x, y := a.Public(), reread.Public()
	if n := testing.AllocsPerRun(100, func() { x.SameIdentity(y) }); n != 0 {
		t.Fatalf("SameIdentity of two keys with their fingerprints memoized: %v allocs", n)
	}
}

// BenchmarkParsePublicDERWarm is a key read again — a credential's,
// a login's — from the bytes it was parsed from: one digest and a memo
// lookup, no parse.
func BenchmarkParsePublicDERWarm(b *testing.B) {
	der := derOf(b, testKeys.a)
	want, err := ParsePublicDER(der)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, err := ParsePublicDER(der); err != nil || got != want {
			b.Fatalf("%v, memoized %v", err, got == want)
		}
	}
}

func TestGateParsePublicDERWarm(t *testing.T) {
	perfgate.Run(t, BenchmarkParsePublicDERWarm, 0, 5000)
}
