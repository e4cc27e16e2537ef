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

// smallOrder holds the encodings of the X25519 shares of small order,
// top bit clear: the u-coordinates 0, 1 and p−1, the two of order 8, and
// p and p+1, which spell 0 and 1 again. X25519 ignores a share's top bit
// (RFC 7748), so each stands for two encodings. Every clamped scalar is a
// multiple of 8, which sends all of them to the all-zero output.
var smallOrder = [...][ShareSize]byte{
	{},
	{1},
	{0xe0, 0xeb, 0x7a, 0x7c, 0x3b, 0x41, 0xb8, 0xae, 0x16, 0x56, 0xe3, 0xfa, 0xf1, 0x9f, 0xc4, 0x6a,
		0xda, 0x09, 0x8d, 0xeb, 0x9c, 0x32, 0xb1, 0xfd, 0x86, 0x62, 0x05, 0x16, 0x5f, 0x49, 0xb8, 0x00},
	{0x5f, 0x9c, 0x95, 0xbc, 0xa3, 0x50, 0x8c, 0x24, 0xb1, 0xd0, 0xb1, 0x55, 0x9c, 0x83, 0xef, 0x5b,
		0x04, 0x44, 0x5c, 0xc4, 0x58, 0x1c, 0x8e, 0x86, 0xd8, 0x22, 0x4e, 0xdd, 0xd0, 0x9f, 0x11, 0x57},
	fieldEncoding(0xec), // p − 1
	fieldEncoding(0xed), // p
	fieldEncoding(0xee), // p + 1
}

// fieldEncoding is p = 2²⁵⁵ − 19, little-endian, with its low byte set to
// low: p − 1, p and p + 1 for 0xec, 0xed and 0xee.
func fieldEncoding(low byte) (e [ShareSize]byte) {
	for i := range e {
		e[i] = 0xff
	}
	e[0], e[ShareSize-1] = low, 0x7f
	return e
}

// CheckShare reports whether a peer's share can be agreed with: ErrAgree
// when it is not ShareSize bytes or is of small order, so that X25519
// with it would yield the all-zero output whatever the scalar. It
// performs no X25519: a broker refuses a bad share at secureConnection
// before it spends an agreement on it.
func CheckShare(share []byte) error {
	if len(share) != ShareSize {
		return ErrAgree
	}
	u := [ShareSize]byte(share)
	u[ShareSize-1] &= 0x7f
	for i := range smallOrder {
		if u == smallOrder[i] {
			return ErrAgree
		}
	}
	return nil
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
