package cred

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/lru"
)

// verifyCacheSize bounds the per-store cache of RSA signature verdicts.
// Each entry is ~200 bytes of key material; 4096 entries comfortably
// cover a broker re-validating the credential chains of thousands of
// active peers.
const verifyCacheSize = 4096

// chainCacheSize bounds the per-store cache of whole-chain verdicts.
// One entry per distinct signer chain; a deployment has one chain per
// client credential, so 1024 covers about a thousand active signers.
const chainCacheSize = 1024

// TrustStore verifies credentials and credential chains against a set of
// anchors. Every JXTA-Overlay peer is provisioned with the
// administrator's self-signed credential as its single anchor (paper
// §4.1); brokers verified through it become intermediate issuers for
// client credentials.
type TrustStore struct {
	mu      sync.RWMutex
	anchors map[keys.PeerID]*Credential
	// issuers caches verified intermediate credentials (brokers) so a
	// client credential can be verified without re-presenting the broker
	// credential every time.
	issuers map[keys.PeerID]*Credential

	// sigCache remembers successful RSA signature checks, keyed by
	// (credential body digest, issuer key fingerprint, signature bytes).
	// Only the expensive modular exponentiation is skipped on a hit: the
	// validity window is always re-checked against the caller's clock, so
	// an expired credential is rejected even when cached. Failed checks
	// are never cached.
	sigCache *lru.Cache[string, struct{}]

	// chainCache remembers successful whole-chain verdicts across
	// *documents*: two different advertisements signed by the same peer
	// embed byte-identical credential chains, but each arrives as a
	// freshly parsed Credential whose canonical body would have to be
	// rebuilt to hit sigCache. The chain key is an injective encoding of
	// every security-relevant field of every link (identity fields, key
	// fingerprints, validity window, signature bytes) plus the resolved
	// root issuer's key fingerprint — equivalent to keying on the body
	// digests without paying canonicalization. Entries carry the chain's
	// validity window (latest NotBefore checked on every hit, earliest
	// NotAfter as the LRU expiry), so expiry is honored exactly as on
	// the uncached path; failures are never cached.
	chainCache *lru.Cache[string, *chainVerdict]
}

type chainVerdict struct {
	// notBefore is the latest NotBefore across the chain; the entry's
	// LRU expiry holds the earliest NotAfter.
	notBefore time.Time
}

// NewTrustStore creates a store trusting the given anchor credentials.
// Anchors must be self-signed and internally consistent; invalid anchors
// are rejected.
func NewTrustStore(anchors ...*Credential) (*TrustStore, error) {
	ts := &TrustStore{
		anchors:    make(map[keys.PeerID]*Credential),
		issuers:    make(map[keys.PeerID]*Credential),
		sigCache:   lru.New[string, struct{}](verifyCacheSize),
		chainCache: lru.New[string, *chainVerdict](chainCacheSize),
	}
	for _, a := range anchors {
		if a.Subject != a.Issuer {
			return nil, fmt.Errorf("cred: anchor %q is not self-signed", a.Subject)
		}
		if err := a.Verify(a.Key, time.Now()); err != nil {
			return nil, fmt.Errorf("cred: anchor %q: %w", a.Subject, err)
		}
		ts.anchors[a.Subject] = a
	}
	return ts, nil
}

// AddIssuer records a credential as an intermediate issuer after
// verifying it against the store at the caller's time now. Typically
// called with a broker credential obtained during secureConnection.
func (t *TrustStore) AddIssuer(c *Credential, now time.Time) error {
	if err := t.Verify(c, now); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.issuers[c.Subject] = c
	return nil
}

// IssuerKey returns the public key of a known anchor or verified
// intermediate issuer.
func (t *TrustStore) IssuerKey(id keys.PeerID) (*keys.PublicKey, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if a, ok := t.anchors[id]; ok {
		return a.Key, true
	}
	if c, ok := t.issuers[id]; ok {
		return c.Key, true
	}
	return nil, false
}

// Verify checks a single credential: its issuer must be a known anchor
// or verified intermediate, and the signature and validity window must
// hold. Signature verdicts are cached (see sigCache); the validity
// window is enforced on every call.
func (t *TrustStore) Verify(c *Credential, now time.Time) error {
	key, ok := t.IssuerKey(c.Issuer)
	if !ok {
		return fmt.Errorf("%w: issuer %q", ErrUntrusted, c.Issuer)
	}
	return t.verifyCached(c, key, now)
}

// verifyCached is Credential.Verify with the RSA work memoized in the
// store's signature cache.
func (t *TrustStore) verifyCached(c *Credential, issuerKey *keys.PublicKey, now time.Time) error {
	if now.Before(c.NotBefore) || now.After(c.NotAfter) {
		return ErrExpired
	}
	m, err := c.bodyMemo()
	if err != nil {
		return err
	}
	fp, err := issuerKey.Fingerprint()
	if err != nil {
		return err
	}
	// The signature bytes are part of the key: a same-body credential
	// carrying a different (possibly forged) signature must never ride a
	// previous verdict.
	cacheKey := string(m.digest) + string(fp[:]) + string(c.Signature)
	if _, ok := t.sigCache.Get(cacheKey, now); ok {
		return nil
	}
	if err := issuerKey.Verify(m.body, c.Signature); err != nil {
		return ErrBadSignature
	}
	// The verdict can outlive its usefulness past NotAfter; expire it
	// there so the cache never vouches for a credential the window check
	// would reject anyway.
	t.sigCache.Put(cacheKey, struct{}{}, c.NotAfter)
	return nil
}

// VerifyChain checks a credential chain leaf-first: chain[0] must be
// signed by chain[1]'s subject, and so on, with the last element's
// issuer being a trust anchor. Every link's validity window is enforced.
// On success the intermediates are cached as issuers.
//
// Verdicts are memoized across documents (see chainCache): verifying a
// second advertisement by an already-known signer skips the per-link
// RSA and canonicalization work entirely, leaving the document's own
// leaf signature as cold verification's only RSA operation.
func (t *TrustStore) VerifyChain(now time.Time, chain ...*Credential) error {
	if len(chain) == 0 {
		return fmt.Errorf("cred: empty chain")
	}
	key := t.chainKey(chain)
	if key != "" {
		// A hit outside the validity window falls through to the slow
		// path, which produces the precise per-link error.
		if v, hit := t.chainCache.Get(key, now); hit && !now.Before(v.notBefore) {
			t.rememberIssuers(chain)
			return nil
		}
	}
	for i, c := range chain {
		if i+1 < len(chain) {
			next := chain[i+1]
			if c.Issuer != next.Subject {
				return fmt.Errorf("cred: chain broken at %d: issuer %q != next subject %q", i, c.Issuer, next.Subject)
			}
			if err := t.verifyCached(c, next.Key, now); err != nil {
				return fmt.Errorf("cred: chain link %d: %w", i, err)
			}
			continue
		}
		// Last link must chain to an anchor (or already-verified issuer).
		if err := t.Verify(c, now); err != nil {
			return fmt.Errorf("cred: chain root: %w", err)
		}
	}
	t.rememberIssuers(chain)
	if key != "" {
		nb, na := ChainWindow(chain)
		t.chainCache.Put(key, &chainVerdict{notBefore: nb}, na)
	}
	return nil
}

// rememberIssuers records the chain's intermediates as trusted issuers.
func (t *TrustStore) rememberIssuers(chain []*Credential) {
	if len(chain) < 2 {
		return
	}
	t.mu.Lock()
	for _, c := range chain[1:] {
		t.issuers[c.Subject] = c
	}
	t.mu.Unlock()
}

// ChainWindow returns a chain's combined validity window: the latest
// NotBefore and the earliest NotAfter across all links. Every cache of
// chain-derived verdicts (the store's own chain cache, xdsig's
// document verification cache) must bound entry lifetime by exactly
// this window.
func ChainWindow(chain []*Credential) (notBefore, notAfter time.Time) {
	for _, c := range chain {
		if c.NotBefore.After(notBefore) {
			notBefore = c.NotBefore
		}
		if notAfter.IsZero() || c.NotAfter.Before(notAfter) {
			notAfter = c.NotAfter
		}
	}
	return notBefore, notAfter
}

// chainKey builds the chain-verdict cache key: for every link, a
// length-prefixed (hence injective) encoding of each field the verdict
// vouches for — identity fields, subject key fingerprint, the agreement
// key the link certifies (none is the empty field), validity window and
// signature bytes — plus the fingerprint of the resolved
// root issuer key the last link was verified under. The encoding covers
// exactly the fields the canonical signing body covers, so it is
// equivalent to keying on the body digests without rebuilding and
// canonicalizing a document tree per link. Returns "" when a key cannot
// be built (e.g. the root issuer is unknown); callers then take the
// slow path, which reports the precise error.
func (t *TrustStore) chainKey(chain []*Credential) string {
	rootKey, ok := t.IssuerKey(chain[len(chain)-1].Issuer)
	if !ok {
		return ""
	}
	rootFP, err := rootKey.Fingerprint()
	if err != nil {
		return ""
	}
	buf := make([]byte, 0, 64+len(chain)*260)
	buf = append(buf, rootFP[:]...)
	for _, c := range chain {
		if c.Key == nil {
			return ""
		}
		fp, err := c.Key.Fingerprint()
		if err != nil {
			return ""
		}
		share, certified := c.Key.AgreementShare()
		agree := share[:0]
		if certified {
			agree = share[:]
		}
		for _, field := range [][]byte{
			[]byte(c.Subject), []byte(c.SubjectName), []byte(c.Role),
			[]byte(c.Issuer), fp[:], agree,
			binary.BigEndian.AppendUint64(nil, uint64(c.NotBefore.UnixNano())),
			binary.BigEndian.AppendUint64(nil, uint64(c.NotAfter.UnixNano())),
			c.Signature,
		} {
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(field)))
			buf = append(buf, field...)
		}
	}
	return string(buf)
}

// ChainCacheStats reports cumulative chain-verdict cache hits and
// misses.
func (t *TrustStore) ChainCacheStats() (hits, misses uint64) {
	return t.chainCache.Stats()
}

// Anchors returns the anchor credentials (for diagnostics).
func (t *TrustStore) Anchors() []*Credential {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Credential, 0, len(t.anchors))
	for _, a := range t.anchors {
		out = append(out, a)
	}
	return out
}
