package cred

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/lru"
)

// StoreCapacity bounds a trust store's verdicts. A peer it hears from
// costs two: its signed advertisement's and its credential's (the broker
// link its chain ends in is shared by every client of that broker), so a
// store keeps the verdicts of about a thousand peers.
const StoreCapacity = 2048

// TrustStore verifies credentials and credential chains against a set of
// anchors, and keeps everything it derives from them in one bounded
// verdict store. Every JXTA-Overlay peer is provisioned with the
// administrator's self-signed credential as its single anchor (paper
// §4.1): the administrator issues broker credentials, brokers issue
// client credentials, and a chain is trusted when each link verifies
// under the next link's key and the last under an anchor's — on every
// call, so that no earlier verdict stands in for an issuer the chain
// does not carry.
//
// The store remembers successful verdicts of two kinds in one LRU, each
// under a fixed-size key:
//
//   - a link: this credential's signature verifies under this issuer
//     key. The key is a digest of the credential's bytes (linkKey) plus
//     the issuer key's fingerprint, so a hit needs no RSA, and a
//     credential differing in any signed field — or in its signature —
//     misses.
//   - a document: xdsig's verdict on a signed advertisement, under the
//     document digest and the signer credential's (LookupDocument).
//
// An entry carries its window: the latest NotBefore of what it vouches
// for is checked on every hit and the earliest NotAfter is its expiry, so
// expiry is honoured exactly as without the store. Failures are never
// stored. A store is one trust domain: its document verdicts were reached
// under its anchors.
type TrustStore struct {
	anchors  map[keys.PeerID]*Credential // fixed at construction
	verdicts *lru.Cache[[64]byte, verdict]

	docHits, docMisses, linkHits, linkMisses atomic.Uint64
}

type verdict struct {
	notBefore time.Time
	// doc is a document verdict as its caller stored it; nil for a link.
	doc any
}

// NewTrustStore creates a store trusting the given anchor credentials.
// Anchors must be self-signed and internally consistent; invalid anchors
// are rejected.
func NewTrustStore(anchors ...*Credential) (*TrustStore, error) {
	ts := &TrustStore{
		anchors:  make(map[keys.PeerID]*Credential, len(anchors)),
		verdicts: lru.New[[64]byte, verdict](StoreCapacity),
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

// Verify checks a single credential issued by an anchor: the chain of
// one.
func (t *TrustStore) Verify(c *Credential, now time.Time) error {
	return t.VerifyChain(now, c)
}

// VerifyChain checks a credential chain leaf-first: chain[0] must be
// issued by chain[1]'s subject, and so on, with the last element issued
// by an anchor. Every link's validity window is enforced, and every
// issuer — chain[i+1], or the anchor for the last link — must be an
// administrator or a broker: a client credential issues nothing.
func (t *TrustStore) VerifyChain(now time.Time, chain ...*Credential) error {
	if len(chain) == 0 {
		return errors.New("cred: empty chain")
	}
	for i, c := range chain {
		var issuer *Credential
		if i+1 < len(chain) {
			issuer = chain[i+1]
			if c.Issuer != issuer.Subject {
				return fmt.Errorf("cred: chain broken at %d: issuer %q != next subject %q", i, c.Issuer, issuer.Subject)
			}
		} else if issuer = t.anchors[c.Issuer]; issuer == nil {
			return fmt.Errorf("cred: chain root: %w: issuer %q", ErrUntrusted, c.Issuer)
		}
		if err := t.verifyLink(c, issuer, now); err != nil {
			return fmt.Errorf("cred: chain link %d: %w", i, err)
		}
	}
	return nil
}

// verifyLink is Credential.Verify under issuer's key, with the RSA
// answered by the store when it holds the link. A stored link lives
// inside c's window, so a hit needs no window check of its own.
func (t *TrustStore) verifyLink(c, issuer *Credential, now time.Time) error {
	if issuer.Role != RoleAdmin && issuer.Role != RoleBroker {
		return fmt.Errorf("%w: issuer %q is a %s credential", ErrUntrusted, issuer.Subject, issuer.Role)
	}
	key, ok := linkKey(c, issuer.Key)
	if ok {
		if _, hit := t.lookup(key, now, &t.linkHits, &t.linkMisses); hit {
			return nil
		}
	}
	if err := c.Verify(issuer.Key, now); err != nil {
		return err
	}
	if ok {
		t.verdicts.Put(key, verdict{notBefore: c.NotBefore}, c.NotAfter)
	}
	return nil
}

// lookup returns the verdict under key if it is live at now, counting the
// hit or miss.
func (t *TrustStore) lookup(key [64]byte, now time.Time, hits, misses *atomic.Uint64) (verdict, bool) {
	v, ok := t.verdicts.Get(key, now)
	if ok && !now.Before(v.notBefore) {
		hits.Add(1)
		return v, true
	}
	misses.Add(1)
	return verdict{}, false
}

// LookupDocument returns the document verdict StoreDocument left under
// key, if it is live at now.
func (t *TrustStore) LookupDocument(key [64]byte, now time.Time) (any, bool) {
	v, ok := t.lookup(key, now, &t.docHits, &t.docMisses)
	return v.doc, ok
}

// StoreDocument remembers a successful verdict on a signed document whose
// signer's chain — verified by this store — is chain, for that chain's
// window. The key must bind every byte the verdict was reached on: xdsig
// uses the document's digest and its signer credential's.
func (t *TrustStore) StoreDocument(key [64]byte, doc any, chain []*Credential) {
	notBefore, notAfter := ChainWindow(chain)
	t.verdicts.Put(key, verdict{notBefore: notBefore, doc: doc}, notAfter)
}

// ChainWindow returns a chain's combined validity window: the latest
// NotBefore and the earliest NotAfter across all links. Everything that
// outlives a chain's verification — a document verdict, a channel —
// must live inside exactly this window.
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

// linkLabel opens every link key's digest: a document key's digest is of
// canonical XML, which begins with '<'.
const linkLabel = "jxta-overlay/credential-link/v1\x00"

// linkKey is the store key of the verdict "c's signature verifies under
// issuerKey": the SHA-256 of linkLabel and the credential's bytes — every
// signed field and the signature — followed by the issuer key's
// fingerprint. A credential differing in any byte misses. ok is false when
// the credential cannot be encoded or the issuer key fingerprinted; the
// caller then verifies without the store.
func linkKey(c *Credential, issuerKey *keys.PublicKey) (key [64]byte, ok bool) {
	if issuerKey == nil {
		return key, false
	}
	raw, err := c.Bytes()
	if err != nil {
		return key, false
	}
	issuerFP, err := issuerKey.Fingerprint()
	if err != nil {
		return key, false
	}
	var scratch [1024]byte // a credential under a 2048-bit key fits
	digest := sha256.Sum256(append(append(scratch[:0], linkLabel...), raw...))
	copy(key[:], digest[:])
	copy(key[sha256.Size:], issuerFP[:])
	return key, true
}

// ChainCacheStats reports cumulative link-verdict hits and misses: one
// lookup per link of every chain verified.
func (t *TrustStore) ChainCacheStats() (hits, misses uint64) {
	return t.linkHits.Load(), t.linkMisses.Load()
}

// DocumentCacheStats reports cumulative document-verdict hits and misses.
func (t *TrustStore) DocumentCacheStats() (hits, misses uint64) {
	return t.docHits.Load(), t.docMisses.Load()
}
