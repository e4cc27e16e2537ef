package keys

import (
	"bytes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync/atomic"

	"jxtaoverlay/internal/lru"
)

// The two primitives key agreement is built from: X25519 and HKDF-SHA256
// over what it yields. A session channel (internal/core, channel.go) runs
// an ephemeral exchange that the responder's certified agreement key
// authenticates; a round's key wrap (wrap.go) is ECIES to that key. The
// primitives here know nothing of either.

// ShareSize is the length of an X25519 public share.
const ShareSize = 32

// ErrAgree is returned when a peer's share is malformed or of low order.
var ErrAgree = errors.New("keys: key agreement failed")

// AgreementKey is the private half of one X25519 key: an ephemeral one,
// meant to be used once and dropped, or a key held for many agreements —
// the one a key pair derives (KeyPair.agreement), or a sender's round key
// (KeyPair.NewRoundKey). Nothing serializes it.
type AgreementKey struct {
	priv  *ecdh.PrivateKey
	share [ShareSize]byte
	// calls and memo are set on a held key (KeyPair.hold): the key pair's
	// counter of the X25519 operations it performs, and the round wrap's
	// agreements by peer share (wrap.go).
	calls *atomic.Uint64
	memo  *lru.Cache[[ShareSize]byte, [ShareSize]byte]
}

// NewAgreementKey draws a fresh ephemeral key.
func NewAgreementKey() (*AgreementKey, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("keys: agreement key: %w", err)
	}
	return newAgreementKey(priv), nil
}

// AgreementKeyFrom builds the key with the given 32-byte scalar (the
// RFC 7748 vectors, deterministic tests).
func AgreementKeyFrom(scalar []byte) (*AgreementKey, error) {
	priv, err := ecdh.X25519().NewPrivateKey(scalar)
	if err != nil {
		return nil, ErrAgree
	}
	return newAgreementKey(priv), nil
}

func newAgreementKey(priv *ecdh.PrivateKey) *AgreementKey {
	a := &AgreementKey{priv: priv}
	copy(a.share[:], priv.PublicKey().Bytes())
	return a
}

// Share returns the public share to send to the peer. It is a copy, so
// that a holder of the share does not keep the private key reachable.
func (a *AgreementKey) Share() []byte { return bytes.Clone(a.share[:]) }

// Agree returns X25519(own scalar, peer share). A share that is not
// ShareSize bytes, or that forces the all-zero output (a low-order
// point), is refused.
func (a *AgreementKey) Agree(peerShare []byte) ([]byte, error) {
	pub, err := ecdh.X25519().NewPublicKey(peerShare)
	if err != nil {
		return nil, ErrAgree
	}
	return a.ecdh(pub)
}

// ecdh is X25519 with a parsed peer share, counted on a held key.
func (a *AgreementKey) ecdh(pub *ecdh.PublicKey) ([]byte, error) {
	if a.calls != nil {
		a.calls.Add(1)
	}
	secret, err := a.priv.ECDH(pub)
	if err != nil {
		return nil, ErrAgree
	}
	return secret, nil
}

// HKDF fills out with key material derived from secret with HMAC-SHA256
// (RFC 5869, extract then expand). An empty salt is the RFC's string of
// zeros, as HMAC pads its key with them. out is at most 255 hash lengths.
// It allocates nothing: the wrap runs it at both ends of every relayed
// delivery.
func HKDF(out, secret, salt, info []byte) {
	if len(out) > 255*sha256.Size {
		panic("keys: HKDF output longer than 255 hash lengths")
	}
	var prk, t [sha256.Size]byte
	extract := newHMACKey(salt)
	extract.sum(&prk, secret)
	expand := newHMACKey(prk[:])
	clear(prk[:])
	var ctr [1]byte
	prev := t[:0]
	for n := 0; n < len(out); {
		ctr[0]++
		expand.sum(&t, prev, info, ctr[:])
		n += copy(out[n:], t[:])
		prev = t[:]
	}
	clear(t[:])
}

// hmacKey is an HMAC-SHA256 key padded into its inner and outer blocks,
// held by value so that an HMAC is two hashes on the stack (hmac.New
// allocates both hashes and both pads).
type hmacKey struct{ ipad, opad [sha256.BlockSize]byte }

func newHMACKey(key []byte) (k hmacKey) {
	if len(key) > sha256.BlockSize {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	copy(k.ipad[:], key)
	copy(k.opad[:], key)
	for i := range k.ipad {
		k.ipad[i] ^= 0x36
		k.opad[i] ^= 0x5c
	}
	return k
}

// sum writes HMAC-SHA256 of the parts, concatenated, to out. A part may
// alias out: each is read before out is written.
func (k *hmacKey) sum(out *[sha256.Size]byte, parts ...[]byte) {
	h := sha256.New()
	h.Write(k.ipad[:])
	for _, p := range parts {
		h.Write(p)
	}
	h.Sum(out[:0])
	h.Reset()
	h.Write(k.opad[:])
	h.Write(out[:])
	h.Sum(out[:0])
}

// NewAEAD returns the AES-256-GCM instance for a content key, for a
// holder that seals or opens many messages under it: the key schedule is
// built once, here. The instance is safe for concurrent use.
func NewAEAD(cek []byte) (cipher.AEAD, error) { return newGCM(cek) }
