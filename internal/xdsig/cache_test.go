package xdsig

import (
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/perfgate"
)

func TestVerifyCacheHit(t *testing.T) {
	f := newFixture(t)
	doc := pipeAdv()
	if err := Sign(doc, clientKP, f.cl, f.br); err != nil {
		t.Fatal(err)
	}
	vc := NewVerifyCache(f.ts)
	now := time.Now()

	res1, err := vc.VerifyTrusted(doc, now)
	if err != nil {
		t.Fatalf("cold verify: %v", err)
	}
	res2, err := vc.VerifyTrusted(doc, now)
	if err != nil {
		t.Fatalf("warm verify: %v", err)
	}
	if res1 != res2 {
		t.Fatal("warm verify did not return the cached result")
	}
	if hits, misses := vc.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("cache stats = %d hits, %d misses; want 1, 1", hits, misses)
	}
	if res2.Signer.SubjectName != "alice" {
		t.Fatalf("cached signer = %q", res2.Signer.SubjectName)
	}
}

func TestVerifyCacheRejectsTamperAfterWarm(t *testing.T) {
	f := newFixture(t)
	doc := pipeAdv()
	if err := Sign(doc, clientKP, f.cl, f.br); err != nil {
		t.Fatal(err)
	}
	vc := NewVerifyCache(f.ts)
	now := time.Now()
	if _, err := vc.VerifyTrusted(doc, now); err != nil {
		t.Fatal(err)
	}
	// Tamper with the already-cached document: the digest changes, the
	// lookup misses, and the full path must reject it.
	doc = retext(t, doc, "urn:jxta:pipe-42", "urn:jxta:pipe-evil")
	if _, err := vc.VerifyTrusted(doc, now); err != ErrDigestMismatch {
		t.Fatalf("tampered verify through cache = %v, want ErrDigestMismatch", err)
	}
}

func TestVerifyCacheHonorsExpiry(t *testing.T) {
	f := newFixture(t)
	doc := pipeAdv()
	if err := Sign(doc, clientKP, f.cl, f.br); err != nil {
		t.Fatal(err)
	}
	vc := NewVerifyCache(f.ts)
	now := time.Now()
	if _, err := vc.VerifyTrusted(doc, now); err != nil {
		t.Fatal(err)
	}
	// Fixture credentials live one hour; two hours later the cached
	// verdict must NOT resurrect the chain.
	if _, err := vc.VerifyTrusted(doc, now.Add(2*time.Hour)); err == nil {
		t.Fatal("cache accepted an expired credential chain")
	}
	// And before NotBefore the verdict must not apply either.
	if _, err := vc.VerifyTrusted(doc, now.Add(-2*time.Hour)); err == nil {
		t.Fatal("cache accepted a not-yet-valid credential chain")
	}
	// Back inside the window it verifies again (fresh entry).
	if _, err := vc.VerifyTrusted(doc, now); err != nil {
		t.Fatalf("re-verify inside window: %v", err)
	}
}

func TestVerifyCacheUntrustedChainNotCached(t *testing.T) {
	f := newFixture(t)
	doc := pipeAdv()
	// Chain signed by mallory's self-issued credential: never trusted.
	malID, _ := keys.CBID(mallory.Public())
	malCred, err := cred.Issue(mallory, malID, malID, "mallory", cred.RoleClient, mallory.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := Sign(doc, mallory, malCred); err != nil {
		t.Fatal(err)
	}
	vc := NewVerifyCache(f.ts)
	now := time.Now()
	for i := 0; i < 2; i++ {
		if _, err := vc.VerifyTrusted(doc, now); err == nil {
			t.Fatalf("attempt %d: untrusted chain accepted", i)
		}
	}
	if hits, _ := vc.Stats(); hits != 0 {
		t.Fatalf("failure was served from cache: %d hits", hits)
	}
}

func TestVerifyCacheUnsignedDocument(t *testing.T) {
	f := newFixture(t)
	vc := NewVerifyCache(f.ts)
	if _, err := vc.VerifyTrusted(pipeAdv(), time.Now()); err != ErrNoSignature {
		t.Fatalf("unsigned doc through cache = %v, want ErrNoSignature", err)
	}
	if _, err := vc.VerifyTrusted(nil, time.Now()); err == nil {
		t.Fatal("nil doc accepted")
	}
}

// TestVerifyCacheConcurrent hammers one cache with valid and tampered
// documents from many goroutines; run with -race.
func TestVerifyCacheConcurrent(t *testing.T) {
	f := newFixture(t)
	good := pipeAdv()
	if err := Sign(good, clientKP, f.cl, f.br); err != nil {
		t.Fatal(err)
	}
	bad := retext(t, good, "urn:jxta:pipe-42", "urn:jxta:pipe-evil")

	vc := NewVerifyCache(f.ts)
	now := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := vc.VerifyTrusted(good, now); err != nil {
					errs <- err
					return
				}
				if _, err := vc.VerifyTrusted(bad, now); err == nil {
					errs <- ErrDigestMismatch
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent cache verification: %v", err)
	}
	hits, _ := vc.Stats()
	if hits == 0 {
		t.Fatal("concurrent verification never hit the cache")
	}
}

// BenchmarkVerifyTrustedWarm is a trusted verification answered by the
// cache: two memoized digests read off their elements and one map probe,
// under a key that needs no heap, in place of three RSA verifications.
// Nothing is hashed: hashing the document's ≈ 3 KB of canonical bytes
// per lookup, as the key once did, read ≈ 2.4 µs.
func BenchmarkVerifyTrustedWarm(b *testing.B) {
	f := newFixture(b)
	doc := pipeAdv()
	if err := Sign(doc, clientKP, f.cl, f.br); err != nil {
		b.Fatal(err)
	}
	vc := NewVerifyCache(f.ts)
	now := time.Now()
	if _, err := vc.VerifyTrusted(doc, now); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vc.VerifyTrusted(doc, now); err != nil {
			b.Fatal(err)
		}
	}
}

// It reads ≈ 0.1 µs: the ceiling sits well above that, and well below
// what a lookup costs that hashes the document again.
func TestGateVerifyTrustedWarm(t *testing.T) {
	perfgate.Run(t, BenchmarkVerifyTrustedWarm, 0, 1000)
}
