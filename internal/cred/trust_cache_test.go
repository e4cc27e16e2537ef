package cred

import (
	"errors"
	"math"
	"testing"
	"time"
)

// The TrustStore remembers successful link verdicts. These tests pin the
// security contract of that store: expiry is still enforced on every
// call, and a credential differing in any signed field, or in its
// signature, never rides a previous verdict.

func TestTrustStoreCachedVerifyStillChecksExpiry(t *testing.T) {
	adm, br, _ := setup(t)
	ts, err := NewTrustStore(adm)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if err := ts.Verify(br, now); err != nil {
		t.Fatalf("cold verify: %v", err)
	}
	if err := ts.Verify(br, now); err != nil {
		t.Fatalf("warm verify: %v", err)
	}
	if h, _ := ts.ChainCacheStats(); h == 0 {
		t.Fatal("second verify did not hit the verdict store")
	}
	// Past NotAfter the cached RSA verdict must not rescue the
	// credential.
	if err := ts.Verify(br, br.NotAfter.Add(time.Minute)); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired verify after caching = %v, want ErrExpired", err)
	}
	if err := ts.Verify(br, br.NotBefore.Add(-time.Minute)); !errors.Is(err, ErrExpired) {
		t.Fatalf("not-yet-valid verify after caching = %v, want ErrExpired", err)
	}
}

func TestTrustStoreCacheKeyedBySignature(t *testing.T) {
	adm, br, _ := setup(t)
	ts, err := NewTrustStore(adm)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if err := ts.Verify(br, now); err != nil {
		t.Fatal(err)
	}
	// Same body, forged signature: byte-identical digest and issuer, but
	// the cached verdict must not apply.
	forged := br.Clone()
	forged.Signature[0] ^= 0xff
	if err := ts.Verify(forged, now); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("forged-signature verify after caching = %v, want ErrBadSignature", err)
	}
	// The genuine credential still verifies.
	if err := ts.Verify(br, now); err != nil {
		t.Fatalf("genuine verify after forgery attempt: %v", err)
	}
}

func TestTrustStoreChainUsesCache(t *testing.T) {
	adm, br, cl := setup(t)
	ts, err := NewTrustStore(adm)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if err := ts.VerifyChain(now, cl, br); err != nil {
		t.Fatalf("cold chain: %v", err)
	}
	if err := ts.VerifyChain(now, cl, br); err != nil {
		t.Fatalf("warm chain: %v", err)
	}
	hits, _ := ts.ChainCacheStats()
	if hits == 0 {
		t.Fatal("repeat chain verification never hit the verdict store")
	}
	// Chain verification after leaf expiry must fail even when cached.
	if err := ts.VerifyChain(cl.NotAfter.Add(time.Minute), cl, br); err == nil {
		t.Fatal("chain with expired leaf accepted after caching")
	}
}

func TestTrustStoreChainCacheCrossDocument(t *testing.T) {
	// Two different documents signed by the same peer carry freshly
	// parsed — distinct but byte-identical — credential chains. The link
	// verdicts must carry across those instances without any new RSA.
	adm, br, cl := setup(t)
	ts, err := NewTrustStore(adm)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if err := ts.VerifyChain(now, cl, br); err != nil {
		t.Fatalf("cold chain: %v", err)
	}
	// A re-parse, and a clone encoded from its fields, are the same bytes.
	for name, chain := range map[string][]*Credential{
		"parsed": {mustParse(t, bytesOf(t, cl)), mustParse(t, bytesOf(t, br))},
		"cloned": {cl.Clone(), br.Clone()},
	} {
		hits0, misses0 := ts.ChainCacheStats()
		if err := ts.VerifyChain(now, chain...); err != nil {
			t.Fatalf("%s chain: %v", name, err)
		}
		if hits, misses := ts.ChainCacheStats(); hits != hits0+2 || misses != misses0 {
			t.Fatalf("%s chain: %d links hit and %d missed, want both to hit", name, hits-hits0, misses-misses0)
		}
	}
}

func TestTrustStoreChainCacheKeyedBySignature(t *testing.T) {
	adm, br, cl := setup(t)
	ts, err := NewTrustStore(adm)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if err := ts.VerifyChain(now, cl, br); err != nil {
		t.Fatal(err)
	}
	// A same-body leaf carrying a forged signature must not ride the
	// cached chain verdict.
	forged := cl.Clone()
	forged.Signature[0] ^= 0xff
	if err := ts.VerifyChain(now, forged, br); err == nil {
		t.Fatal("forged-signature chain accepted after caching")
	}
	// Nor may a leaf whose validity window was stretched (different
	// body, original signature).
	stretched := cl.Clone()
	stretched.NotAfter = stretched.NotAfter.Add(24 * time.Hour)
	if err := ts.VerifyChain(now, stretched, br); err == nil {
		t.Fatal("window-stretched chain accepted after caching")
	}
	// Nor by 2^64 ns, which leaves the window's UnixNano as it was.
	wrapped := cl.Clone()
	wrapped.NotAfter = wrapped.NotAfter.Add(math.MaxInt64).Add(math.MaxInt64).Add(2)
	if wrapped.NotAfter.UnixNano() != cl.NotAfter.UnixNano() {
		t.Fatal("test setup: the stretch does not wrap UnixNano")
	}
	if err := ts.VerifyChain(now, wrapped, br); err == nil {
		t.Fatal("chain stretched by 2^64 ns accepted after caching")
	}
}

// TestTrustStoreChainCacheKeyedByShare: the agreement key a client
// credential certifies is a signed field like any other. A leaf whose
// share was swapped, dropped or added — signature untouched — must not
// ride the verdict its honest chain left in the cache.
func TestTrustStoreChainCacheKeyedByShare(t *testing.T) {
	adm, br, cl := setup(t)
	ts, err := NewTrustStore(adm)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if err := ts.VerifyChain(now, cl, br); err != nil {
		t.Fatal(err)
	}
	otherShare, _ := otherKP.Public().AgreementShare()
	swapped, dropped := cl.Clone(), cl.Clone()
	swapped.Key = cl.Key.WithShare(&otherShare)
	dropped.Key = cl.Key.WithShare(nil)
	added := br.Clone()
	added.Key = brokerKP.Public()
	for _, tc := range []struct {
		name  string
		chain []*Credential
		// honest is how many untouched links are checked before the
		// tampered one: those hit, and the tampered link misses.
		honest uint64
	}{
		{"swapped share", []*Credential{swapped, br}, 0},
		{"dropped share", []*Credential{dropped, br}, 0},
		{"share added to the broker's", []*Credential{cl, added}, 1},
	} {
		hits, misses := ts.ChainCacheStats()
		if err := ts.VerifyChain(now, tc.chain...); !errors.Is(err, ErrBadSignature) {
			t.Errorf("%s after caching the honest chain = %v, want ErrBadSignature", tc.name, err)
		}
		if h, m := ts.ChainCacheStats(); h != hits+tc.honest || m != misses+1 {
			t.Errorf("%s hit the honest chain's cached verdict", tc.name)
		}
	}
	if err := ts.VerifyChain(now, cl.Clone(), br.Clone()); err != nil {
		t.Fatalf("honest chain after the attempts: %v", err)
	}
}
