package xdsig

import (
	"crypto/sha256"
	"errors"
	"time"

	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/lru"
	"jxtaoverlay/internal/xmldoc"
)

// DefaultVerifyCacheSize bounds a VerifyCache when the caller does not
// pick a size.
const DefaultVerifyCacheSize = 1024

// VerifyCache memoizes successful VerifyTrusted outcomes so a peer that
// sees the same signed document over and over — a broker re-validating a
// popular advertisement, a client fanning a message out to a group whose
// pipe advertisements it already verified — pays the RSA and chain work
// once and a digest lookup thereafter.
//
// The cache key is the SHA-256 digest of the document's canonical form
// (which covers the signature and the embedded credential chain)
// combined with a fingerprint of the signer's embedded key material. Any
// tampering changes the digest and misses the cache, falling back to a
// full — and failing — verification; failures are never cached.
//
// Entries are TTL-bounded by the credential chain's validity window:
// an entry expires at the chain's earliest NotAfter, and a hit before
// the chain's latest NotBefore is ignored, so VerifyTrusted honors
// credential expiry exactly as the uncached path does. A cache is bound
// to one TrustStore and must not be shared across trust domains.
//
// VerifyCache is the outermost of three cache layers: a miss here (a
// document this peer has not verified) still rides the TrustStore's
// chain-verdict cache — so a *new* document by a *known* signer pays
// one RSA operation, its own leaf signature — and, below that, the
// per-link signature cache.
type VerifyCache struct {
	trust *cred.TrustStore
	lru   *lru.Cache[verifyKey, *verifyEntry]
}

type verifyEntry struct {
	res *Result
	// notBefore is the latest NotBefore across the chain; the entry's
	// LRU expiry holds the earliest NotAfter. Together they pin the
	// cached verdict inside the chain's validity window.
	notBefore time.Time
}

// NewVerifyCache creates a verification cache bound to the given trust
// store. capacity <= 0 selects DefaultVerifyCacheSize.
func NewVerifyCache(trust *cred.TrustStore, capacity int) *VerifyCache {
	if capacity <= 0 {
		capacity = DefaultVerifyCacheSize
	}
	return &VerifyCache{trust: trust, lru: lru.New[verifyKey, *verifyEntry](capacity)}
}

// TrustStore returns the trust store the cache verifies against.
func (vc *VerifyCache) TrustStore() *cred.TrustStore { return vc.trust }

// Stats reports cumulative cache hits and misses.
func (vc *VerifyCache) Stats() (hits, misses uint64) { return vc.lru.Stats() }

// cacheKey derives the lookup key: document digest plus a fingerprint of
// the signer's embedded key material, in an array that needs no heap. The
// key is hashed as embedded (its canonical element, no DER parse) — it
// only has to bind the cache entry to the exact bytes that were verified,
// and those are what the digest covers. Both canonical forms are memoized
// on their elements, so a warm lookup hashes and allocates nothing else.
func cacheKey(doc *xmldoc.Element) (key verifyKey, ok bool) {
	sig := doc.Child(SignatureElement)
	if sig == nil {
		return key, false
	}
	keyInfo := sig.Child("KeyInfo")
	if keyInfo == nil {
		return key, false
	}
	leaf := keyInfo.Child(cred.ElementName)
	if leaf == nil {
		return key, false
	}
	keyElem := leaf.Child("Key")
	if keyElem == nil {
		return key, false
	}
	docDigest := sha256.Sum256(doc.Canonical())
	keyFP := sha256.Sum256(keyElem.Canonical())
	copy(key[:], docDigest[:])
	copy(key[sha256.Size:], keyFP[:])
	return key, true
}

// verifyKey is a cache key: two SHA-256 digests.
type verifyKey [2 * sha256.Size]byte

// VerifyTrusted is the cached equivalent of the package-level
// VerifyTrusted. On a miss (or any structural shortfall) it runs the
// full verification and caches a success; on a hit it re-checks only the
// validity window against now. The returned Result is shared between
// callers and must be treated as read-only.
func (vc *VerifyCache) VerifyTrusted(doc *xmldoc.Element, now time.Time) (*Result, error) {
	if vc == nil {
		return nil, errors.New("xdsig: nil verify cache")
	}
	if doc == nil {
		return nil, errors.New("xdsig: nil document")
	}
	key, ok := cacheKey(doc)
	if !ok {
		// Structurally unsound for caching; the full path produces the
		// precise error (ErrNoSignature, ErrNoKeyInfo, ...).
		return VerifyTrusted(doc, vc.trust, now)
	}
	if ent, hit := vc.lru.Get(key, now); hit && !now.Before(ent.notBefore) {
		return ent.res, nil
	}
	res, err := VerifyTrusted(doc, vc.trust, now)
	if err != nil {
		return nil, err
	}
	notBefore, notAfter := cred.ChainWindow(res.Chain)
	vc.lru.Put(key, &verifyEntry{res: res, notBefore: notBefore}, notAfter)
	return res, nil
}
