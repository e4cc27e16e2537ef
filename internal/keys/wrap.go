package keys

import (
	"crypto/ecdh"
	"errors"
)

// The round key wrap: ECIES to the X25519 agreement key a client
// credential certifies (SECURITY.md, "Certified agreement key"). A round
// draws one ephemeral key E; for recipient i, whose certified share is R_i
// and whose RSA key fingerprint is fp_i,
//
//	(k_enc ‖ k_mac) = HKDF(X25519(e, R_i), salt = E, info = label ‖ fp_i ‖ R_i)
//	wrap_i          = (CEK ⊕ k_enc) ‖ HMAC-SHA256(k_mac, E ‖ CEK ⊕ k_enc)[:16]
//
// Every key-encryption key is used once, so the XOR is a one-time pad and
// the tag makes the wrap encrypt-then-MAC; no cipher's key schedule is
// built per recipient. Neither end performs an RSA private-key operation:
// the sender pays one X25519 per recipient, the recipient one.
//
// A key pair's agreement key is derived from its RSA private key
// (KeyPair.agreement), so it is no second secret to store and it changes
// when, and only when, the identity key does.

// ContentKeySize is the length of an AES-256 content key.
const ContentKeySize = 32

// WrapSize is the length of one wrap: the masked content key and its tag.
const WrapSize = ContentKeySize + wrapTagSize

const (
	wrapTagSize    = 16
	wrapLabel      = "jxta-overlay/round-wrap/v1"
	agreementLabel = "jxta-overlay/agreement-key/v1"
)

// ErrNoAgreementKey is returned for a recipient whose key carries no
// agreement key: no round can be wrapped to it.
var ErrNoAgreementKey = errors.New("keys: recipient key certifies no agreement key")

// lowOrderProbe is any clamped scalar: X25519 with it sends every point of
// small order to the all-zero output, which ECDH refuses.
var lowOrderProbe, _ = ecdh.X25519().NewPrivateKey(make([]byte, ShareSize))

// agreement is the key pair's X25519 agreement key, derived on first use
// and memoized: its scalar is HKDF of the RSA private exponent under a
// label of its own.
func (k *KeyPair) agreement() *AgreementKey {
	if a := k.agree.Load(); a != nil {
		return a
	}
	var scalar [ShareSize]byte
	HKDF(scalar[:], k.priv.D.Bytes(), nil, []byte(agreementLabel))
	a, err := AgreementKeyFrom(scalar[:])
	clear(scalar[:])
	if err != nil {
		panic(err) // every 32 bytes are an X25519 scalar
	}
	k.agree.Store(a)
	return a
}

// Agree returns X25519 of the key pair's agreement key with peerShare,
// refusing what AgreementKey.Agree refuses. It is the responder's static
// half of a session channel's key (internal/core, channel.go), and no RSA
// operation.
func (k *KeyPair) Agree(peerShare []byte) ([]byte, error) {
	return k.agreement().Agree(peerShare)
}

// agreeMemo is a public key's agreement key in the form X25519 takes, and
// whether it is usable.
type agreeMemo struct {
	pub *ecdh.PublicKey
	err error
}

// CheckAgreementKey reports whether a round can be wrapped to the key:
// ErrNoAgreementKey when it carries no agreement key, ErrAgree when the
// one it carries is of small order. The verdict is memoized.
func (p *PublicKey) CheckAgreementKey() error {
	_, err := p.agreementPublic()
	return err
}

func (p *PublicKey) agreementPublic() (*ecdh.PublicKey, error) {
	if !p.certified {
		return nil, ErrNoAgreementKey
	}
	if m := p.agree.Load(); m != nil {
		return m.pub, m.err
	}
	m := &agreeMemo{err: ErrAgree}
	if pub, err := ecdh.X25519().NewPublicKey(p.share[:]); err == nil {
		if _, err := lowOrderProbe.ECDH(pub); err == nil {
			m.pub, m.err = pub, nil
		}
	}
	p.agree.Store(m)
	return m.pub, m.err
}

// WrapTo appends to dst the wrap of cek, a ContentKeySize content key, for
// to under this (ephemeral) key.
func (a *AgreementKey) WrapTo(dst, cek []byte, to *PublicKey) ([]byte, error) {
	if len(cek) != ContentKeySize {
		return dst, errors.New("keys: wrap: content key is not 32 bytes")
	}
	peer, err := to.agreementPublic()
	if err != nil {
		return dst, err
	}
	fp, err := to.Fingerprint()
	if err != nil {
		return dst, err
	}
	secret, err := a.priv.ECDH(peer)
	if err != nil {
		return dst, ErrAgree
	}
	var kek [2 * ContentKeySize]byte
	wrapKEK(&kek, secret, &a.share, &fp, &to.share)
	clear(secret)
	var w [WrapSize]byte
	for i := range ContentKeySize {
		w[i] = cek[i] ^ kek[i]
	}
	wrapTag(&w, &kek, &a.share)
	clear(kek[:])
	return append(dst, w[:]...), nil
}

// UnwrapFrom recovers the content key wrapped to this key pair's agreement
// key under the ephemeral share eph. A share that is malformed or of small
// order, and a wrap whose tag does not verify, are ErrDecrypt. It is no
// RSA operation, and UnwrapCalls does not count it.
func (k *KeyPair) UnwrapFrom(eph, wrap []byte) (cek [ContentKeySize]byte, err error) {
	if len(eph) != ShareSize || len(wrap) != WrapSize {
		return cek, ErrDecrypt
	}
	own := k.agreement()
	secret, err := own.Agree(eph)
	if err != nil {
		return cek, ErrDecrypt
	}
	fp, err := k.Public().Fingerprint()
	if err != nil {
		return cek, err
	}
	var kek [2 * ContentKeySize]byte
	wrapKEK(&kek, secret, (*[ShareSize]byte)(eph), &fp, &own.share)
	clear(secret)
	var want [WrapSize]byte
	copy(want[:ContentKeySize], wrap)
	wrapTag(&want, &kek, (*[ShareSize]byte)(eph))
	if !ConstantTimeEqual(want[ContentKeySize:], wrap[ContentKeySize:]) {
		clear(kek[:])
		return cek, ErrDecrypt
	}
	for i := range cek {
		cek[i] = wrap[i] ^ kek[i]
	}
	clear(kek[:])
	return cek, nil
}

// wrapKEK derives one recipient's k_enc ‖ k_mac.
func wrapKEK(kek *[2 * ContentKeySize]byte, secret []byte, eph, fp, share *[ShareSize]byte) {
	var info [len(wrapLabel) + 2*ShareSize]byte
	n := copy(info[:], wrapLabel)
	n += copy(info[n:], fp[:])
	copy(info[n:], share[:])
	HKDF(kek[:], secret, eph[:], info[:])
}

// wrapTag writes the tag over w's masked key into the rest of w.
func wrapTag(w *[WrapSize]byte, kek *[2 * ContentKeySize]byte, eph *[ShareSize]byte) {
	mac := newHMACKey(kek[ContentKeySize:])
	var tag [32]byte
	mac.sum(&tag, eph[:], w[:ContentKeySize])
	copy(w[ContentKeySize:], tag[:wrapTagSize])
}
