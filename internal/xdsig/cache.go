package xdsig

import (
	"crypto/sha256"
	"errors"
	"time"

	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/xmldoc"
)

// VerifyCache is VerifyTrusted with its verdicts kept in the trust
// store's verdict store, so a peer that sees the same signed document
// over and over — a broker re-validating a popular advertisement, a
// client fanning a message out to a group whose pipe advertisements it
// already verified — pays the RSA and chain work once and a digest lookup
// thereafter.
//
// A document verdict is keyed by the SHA-256 digest of the document's
// canonical form (which covers the signature and the embedded credential
// chain) and a digest of the signer's embedded credential. Any tampering
// changes the digest and misses, falling back to a full — and failing —
// verification; failures are never stored. The store bounds the verdict
// by the chain's validity window, so VerifyTrusted honours credential
// expiry exactly as the uncached path does. A miss (a document this peer
// has not verified) still finds the links of a known signer's chain in
// the same store: a new document by a known signer pays one RSA
// operation, its own signature.
type VerifyCache struct {
	trust *cred.TrustStore
}

// NewVerifyCache creates a verification cache over the given trust
// store's verdicts.
func NewVerifyCache(trust *cred.TrustStore) *VerifyCache {
	return &VerifyCache{trust: trust}
}

// TrustStore returns the trust store the cache verifies against.
func (vc *VerifyCache) TrustStore() *cred.TrustStore { return vc.trust }

// Stats reports cumulative document-verdict hits and misses.
func (vc *VerifyCache) Stats() (hits, misses uint64) { return vc.trust.DocumentCacheStats() }

// cacheKey derives the lookup key: document digest plus a digest of the
// signer's embedded credential, in an array that needs no heap. The
// credential is hashed as embedded (its canonical element, no parse) — it
// only has to bind the verdict to the exact bytes that were verified, and
// those are what the digest covers. Both digests are memoized on their
// elements beside the canonical bytes they cover, and a mutator drops
// both together, so a warm lookup walks to the credential and reads two
// memos: it hashes and allocates nothing.
func cacheKey(doc *xmldoc.Element) (key [64]byte, ok bool) {
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
	docDigest := doc.CanonicalSum()
	keyFP := leaf.CanonicalSum()
	copy(key[:], docDigest[:])
	copy(key[sha256.Size:], keyFP[:])
	return key, true
}

// VerifyTrusted is the cached equivalent of the package-level
// VerifyTrusted. On a miss (or any structural shortfall) it runs the
// full verification and stores a success; on a hit it re-checks only the
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
	if res, hit := vc.trust.LookupDocument(key, now); hit {
		return res.(*Result), nil
	}
	res, err := VerifyTrusted(doc, vc.trust, now)
	if err != nil {
		return nil, err
	}
	vc.trust.StoreDocument(key, res, res.Chain)
	return res, nil
}
