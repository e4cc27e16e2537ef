package cred

import (
	"errors"
	"testing"
	"time"
)

// The TrustStore memoizes successful RSA signature checks. These tests
// pin the security contract of that cache: expiry is still enforced on
// every call, and a same-body credential carrying a different signature
// never rides a previous verdict.

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
	if h, _ := ts.sigCache.Stats(); h == 0 {
		t.Fatal("second verify did not hit the signature cache")
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
	hits, _ := ts.chainCache.Stats()
	if hits == 0 {
		t.Fatal("repeat chain verification never hit the chain-verdict cache")
	}
	// Chain verification after leaf expiry must fail even when cached.
	if err := ts.VerifyChain(cl.NotAfter.Add(time.Minute), cl, br); err == nil {
		t.Fatal("chain with expired leaf accepted after caching")
	}
}

func TestTrustStoreChainCacheCrossDocument(t *testing.T) {
	// Two different documents signed by the same peer carry freshly
	// parsed — distinct but byte-identical — credential chains. The
	// chain verdict must carry across those instances without any new
	// RSA work.
	adm, br, cl := setup(t)
	ts, err := NewTrustStore(adm)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if err := ts.VerifyChain(now, cl, br); err != nil {
		t.Fatalf("cold chain: %v", err)
	}
	sigHits0, sigMiss0 := ts.sigCache.Stats()
	// Clones simulate a re-parse: same fields, no shared memo state.
	if err := ts.VerifyChain(now, cl.Clone(), br.Clone()); err != nil {
		t.Fatalf("cloned chain: %v", err)
	}
	if hits, _ := ts.chainCache.Stats(); hits == 0 {
		t.Fatal("cloned chain missed the chain-verdict cache")
	}
	sigHits1, sigMiss1 := ts.sigCache.Stats()
	if sigHits1 != sigHits0 || sigMiss1 != sigMiss0 {
		t.Fatal("chain-cache hit still consulted the per-link signature cache")
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
	}{
		{"swapped share", []*Credential{swapped, br}},
		{"dropped share", []*Credential{dropped, br}},
		{"share added to the broker's", []*Credential{cl, added}},
	} {
		hits, _ := ts.chainCache.Stats()
		if err := ts.VerifyChain(now, tc.chain...); !errors.Is(err, ErrBadSignature) {
			t.Errorf("%s after caching the honest chain = %v, want ErrBadSignature", tc.name, err)
		}
		if after, _ := ts.chainCache.Stats(); after != hits {
			t.Errorf("%s hit the honest chain's cached verdict", tc.name)
		}
	}
	if err := ts.VerifyChain(now, cl.Clone(), br.Clone()); err != nil {
		t.Fatalf("honest chain after the attempts: %v", err)
	}
}
