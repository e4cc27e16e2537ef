package keys

import (
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
)

// The two primitives a session channel is agreed with (internal/core,
// channel.go): an ephemeral X25519 exchange and HKDF-SHA256 over what it
// yields. Both ends sign their shares with their certified RSA keys; the
// primitives here know nothing of that.

// ShareSize is the length of an X25519 public share.
const ShareSize = 32

// ErrAgree is returned when a peer's share is malformed or of low order.
var ErrAgree = errors.New("keys: key agreement failed")

// AgreementKey is the private half of one X25519 exchange. It is meant to
// be used once and dropped: nothing serializes it.
type AgreementKey struct{ priv *ecdh.PrivateKey }

// NewAgreementKey draws a fresh ephemeral key.
func NewAgreementKey() (*AgreementKey, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("keys: agreement key: %w", err)
	}
	return &AgreementKey{priv}, nil
}

// AgreementKeyFrom builds the key with the given 32-byte scalar (the
// RFC 7748 vectors, deterministic tests).
func AgreementKeyFrom(scalar []byte) (*AgreementKey, error) {
	priv, err := ecdh.X25519().NewPrivateKey(scalar)
	if err != nil {
		return nil, ErrAgree
	}
	return &AgreementKey{priv}, nil
}

// Share returns the public share to send to the peer.
func (a *AgreementKey) Share() []byte { return a.priv.PublicKey().Bytes() }

// Agree returns X25519(own scalar, peer share). A share that is not
// ShareSize bytes, or that forces the all-zero output (a low-order
// point), is refused.
func (a *AgreementKey) Agree(peerShare []byte) ([]byte, error) {
	pub, err := ecdh.X25519().NewPublicKey(peerShare)
	if err != nil {
		return nil, ErrAgree
	}
	secret, err := a.priv.ECDH(pub)
	if err != nil {
		return nil, ErrAgree
	}
	return secret, nil
}

// HKDF derives length bytes from secret with HMAC-SHA256 (RFC 5869,
// extract then expand). An empty salt is the RFC's string of zeros, as
// HMAC pads its key with them. length is at most 255 hash lengths.
func HKDF(secret, salt, info []byte, length int) []byte {
	extract := hmac.New(sha256.New, salt)
	extract.Write(secret)
	expand := hmac.New(sha256.New, extract.Sum(nil))
	out := make([]byte, 0, length+sha256.Size)
	var t []byte
	for i := byte(1); len(out) < length; i++ {
		expand.Reset()
		expand.Write(t)
		expand.Write(info)
		expand.Write([]byte{i})
		t = expand.Sum(t[:0])
		out = append(out, t...)
	}
	return out[:length]
}

// NewAEAD returns the AES-256-GCM instance for a content key, for a
// holder that seals or opens many messages under it: the key schedule is
// built once, here. The instance is safe for concurrent use.
func NewAEAD(cek []byte) (cipher.AEAD, error) { return newGCM(cek) }
