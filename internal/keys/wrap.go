package keys

import (
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"
	"time"

	"jxtaoverlay/internal/lru"
)

// The key wrap, and the envelope built on it: ECIES to the X25519
// agreement key a credential certifies (SECURITY.md, "Certified agreement
// key"), the one key transport of every sealed message and of the
// database request. A content key is wrapped under a sender's key
// E, bound to the one AES-GCM nonce the content is encrypted under; for
// recipient i, whose certified share is R_i and whose RSA key fingerprint
// is fp_i,
//
//	(k_enc ‖ k_mac) = HKDF(X25519(e, R_i), salt = E, info = label ‖ fp_i ‖ R_i ‖ nonce)
//	wrap_i          = (CEK ⊕ k_enc) ‖ HMAC-SHA256(k_mac, E ‖ CEK ⊕ k_enc)[:16]
//
// The nonce is drawn fresh for every round and every envelope, so every
// key-encryption key is used once even when E serves many rounds: the
// XOR is a one-time pad and the tag makes the wrap encrypt-then-MAC; no
// cipher's key schedule is built per recipient. Neither end performs an
// RSA private-key operation. A round carries one wrap per recipient
// (internal/core, round.go); an envelope carries one, under a fresh E:
//
//	envelope = E[32] ‖ wrap[48] ‖ nonce[12] ‖ AES-256-GCM(CEK, nonce, plaintext)
//
// A sender may hold E for many rounds (NewRoundKey), and a recipient sees
// the same E again in each of them, so both ends memoize the X25519 — the
// sender per recipient share, the recipient per E: a round's wrap after
// the first costs each end one HKDF. The recipient keeps only what a
// wrap's tag verified. Both memos are capped at agreeMemoCap entries.
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
	wrapLabel      = "jxta-overlay/round-wrap/v2"
	agreementLabel = "jxta-overlay/agreement-key/v1"
	// agreeMemoCap bounds each held key's memo: as many peers as a client
	// keeps verdicts for (cred.StoreCapacity, two per peer).
	agreeMemoCap = 1024
)

// ErrNoAgreementKey is returned for a recipient whose key carries no
// agreement key: nothing can be sealed to it.
var ErrNoAgreementKey = errors.New("keys: recipient key certifies no agreement key")

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
	if !k.agree.CompareAndSwap(nil, k.hold(a)) {
		return k.agree.Load()
	}
	return a
}

// NewRoundKey draws an ephemeral key for a sender to wrap many rounds
// under: it memoizes X25519 per recipient share, and counts each one it
// performs in the key pair's AgreeCalls. The holder decides how long it
// lives.
func (k *KeyPair) NewRoundKey() (*AgreementKey, error) {
	a, err := NewAgreementKey()
	if err != nil {
		return nil, err
	}
	return k.hold(a), nil
}

// hold makes a a key held for many agreements: its X25519 operations are
// counted in k's AgreeCalls, and the round wrap's are memoized per peer
// share.
func (k *KeyPair) hold(a *AgreementKey) *AgreementKey {
	a.calls = &k.agreeCalls
	a.memo = lru.New[[ShareSize]byte, [ShareSize]byte](agreeMemoCap)
	return a
}

// Agree returns X25519 of the key pair's agreement key with peerShare,
// refusing what AgreementKey.Agree refuses. It is the responder's static
// half of a session channel's key (internal/core, channel.go) and the
// broker's half of a secureConnection (brokersec.go), and no RSA
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

// CheckAgreementKey reports whether anything can be sealed to the key:
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
	if CheckShare(p.share[:]) == nil {
		if pub, err := ecdh.X25519().NewPublicKey(p.share[:]); err == nil {
			m.pub, m.err = pub, nil
		}
	}
	p.agree.Store(m)
	return m.pub, m.err
}

// recall fills secret with the memoized X25519 with peer, if a held key
// has one.
func (a *AgreementKey) recall(peer, secret *[ShareSize]byte) bool {
	if a.memo == nil {
		return false
	}
	var ok bool
	*secret, ok = a.memo.Get(*peer, time.Time{})
	return ok
}

// remember memoizes a held key's X25519 with peer; an ephemeral key
// remembers nothing.
func (a *AgreementKey) remember(peer, secret *[ShareSize]byte) {
	if a.memo != nil {
		a.memo.Put(*peer, *secret, time.Time{})
	}
}

// WrapTo appends to dst the wrap of cek, a ContentKeySize content key, for
// to under this (ephemeral) key, bound to nonce: the AEADNonceSize nonce
// the round's content is sealed under.
func (a *AgreementKey) WrapTo(dst, cek []byte, to *PublicKey, nonce []byte) ([]byte, error) {
	if len(cek) != ContentKeySize || len(nonce) != AEADNonceSize {
		return dst, errors.New("keys: wrap: content key or nonce of the wrong length")
	}
	peer, err := to.agreementPublic()
	if err != nil {
		return dst, err
	}
	fp, err := to.Fingerprint()
	if err != nil {
		return dst, err
	}
	var secret [ShareSize]byte
	if !a.recall(&to.share, &secret) {
		s, err := a.ecdh(peer)
		if err != nil {
			return dst, err
		}
		secret = [ShareSize]byte(s)
		clear(s)
		a.remember(&to.share, &secret)
	}
	var kek [2 * ContentKeySize]byte
	wrapKEK(&kek, &secret, &a.share, &fp, &to.share, nonce)
	clear(secret[:])
	var w [WrapSize]byte
	for i := range ContentKeySize {
		w[i] = cek[i] ^ kek[i]
	}
	wrapTag(&w, &kek, &a.share)
	clear(kek[:])
	return append(dst, w[:]...), nil
}

// UnwrapFrom recovers the content key wrapped to this key pair's agreement
// key under the ephemeral share eph and bound to nonce. A share that is
// malformed or of small order, a nonce of the wrong length, and a wrap
// whose tag does not verify — another round's nonce among its causes —
// are ErrDecrypt. It is no RSA operation; the X25519 with eph is memoized
// once a wrap under eph verifies.
func (k *KeyPair) UnwrapFrom(eph, wrap, nonce []byte) (cek [ContentKeySize]byte, err error) {
	if len(eph) != ShareSize || len(wrap) != WrapSize || len(nonce) != AEADNonceSize {
		return cek, ErrDecrypt
	}
	own := k.agreement()
	fp, err := k.Public().Fingerprint()
	if err != nil {
		return cek, err
	}
	e := (*[ShareSize]byte)(eph)
	var secret [ShareSize]byte
	memoized := own.recall(e, &secret)
	if !memoized {
		s, err := own.Agree(eph)
		if err != nil {
			return cek, ErrDecrypt
		}
		secret = [ShareSize]byte(s)
		clear(s)
	}
	var kek [2 * ContentKeySize]byte
	wrapKEK(&kek, &secret, e, &fp, &own.share, nonce)
	var want [WrapSize]byte
	copy(want[:ContentKeySize], wrap)
	wrapTag(&want, &kek, e)
	if !ConstantTimeEqual(want[ContentKeySize:], wrap[ContentKeySize:]) {
		clear(kek[:])
		clear(secret[:])
		return cek, ErrDecrypt
	}
	if !memoized {
		own.remember(e, &secret)
	}
	clear(secret[:])
	for i := range cek {
		cek[i] = wrap[i] ^ kek[i]
	}
	clear(kek[:])
	return cek, nil
}

// wrapKEK derives one recipient's k_enc ‖ k_mac.
func wrapKEK(kek *[2 * ContentKeySize]byte, secret, eph *[ShareSize]byte, fp *[32]byte, share *[ShareSize]byte, nonce []byte) {
	var info [len(wrapLabel) + 2*ShareSize + AEADNonceSize]byte
	n := copy(info[:], wrapLabel)
	n += copy(info[n:], fp[:])
	n += copy(info[n:], share[:])
	copy(info[n:], nonce)
	HKDF(kek[:], secret[:], eph[:], info[:])
}

// wrapTag writes the tag over w's masked key into the rest of w.
func wrapTag(w *[WrapSize]byte, kek *[2 * ContentKeySize]byte, eph *[ShareSize]byte) {
	mac := newHMACKey(kek[ContentKeySize:])
	var tag [32]byte
	mac.sum(&tag, eph[:], w[:ContentKeySize])
	copy(w[ContentKeySize:], tag[:wrapTagSize])
}

// EnvelopePrefix is the length of an envelope's fields in front of its
// ciphertext: the sender's share, the wrap and the nonce.
const EnvelopePrefix = ShareSize + WrapSize + AEADNonceSize

// Envelope is an envelope cut into its fields, views of its wire form.
type Envelope struct {
	Ephemeral  []byte // the sender's share E
	Wrap       []byte // the content key, wrapped to the recipient and bound to Nonce
	Nonce      []byte
	Ciphertext []byte // AES-256-GCM of the plaintext, tag included
	wire       []byte
}

// Bytes is the envelope's wire form: the bytes its fields are views of.
func (e *Envelope) Bytes() []byte { return e.wire }

// Encrypt seals plain for the holder of the agreement key p carries
// (ErrNoAgreementKey when it carries none), under a fresh ephemeral key:
// the paper's E_PK(x).
func (p *PublicKey) Encrypt(plain []byte) (*Envelope, error) {
	buf := append(make([]byte, EnvelopePrefix, EnvelopePrefix+len(plain)+AEADOverhead), plain...)
	buf, err := SealEnvelope(buf, 0, p)
	if err != nil {
		return nil, err
	}
	return ParseEnvelope(buf)
}

// SealEnvelope encrypts buf[at+EnvelopePrefix:] where it lies, for the
// holder of the agreement key to carries, under a fresh ephemeral key,
// and appends the tag; the fields in front of the ciphertext are written
// into buf[at:at+EnvelopePrefix], which the caller leaves for them.
func SealEnvelope(buf []byte, at int, to *PublicKey) ([]byte, error) {
	eph, err := NewAgreementKey()
	if err != nil {
		return nil, err
	}
	var cek [ContentKeySize]byte
	nonce := buf[at+ShareSize+WrapSize : at+EnvelopePrefix]
	if _, err := rand.Read(cek[:]); err != nil {
		return nil, fmt.Errorf("keys: cek: %w", err)
	}
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("keys: nonce: %w", err)
	}
	copy(buf[at:], eph.share[:])
	// Appended where it belongs: the wrap's bytes are buf's own.
	_, err = eph.WrapTo(buf[at+ShareSize:at+ShareSize], cek[:], to, nonce)
	if err == nil {
		buf, err = AEADSealInPlace(cek[:], nonce, buf, at+EnvelopePrefix)
	}
	clear(cek[:])
	return buf, err
}

// Decrypt opens an envelope sealed to this key pair's agreement key. The
// envelope is left as it was.
func (k *KeyPair) Decrypt(env *Envelope) ([]byte, error) {
	if env == nil {
		return nil, ErrDecrypt
	}
	cek, err := k.UnwrapFrom(env.Ephemeral, env.Wrap, env.Nonce)
	if err != nil {
		return nil, ErrDecrypt
	}
	plain, err := AEADOpen(cek[:], env.Nonce, env.Ciphertext)
	clear(cek[:])
	return plain, err
}

// ParseEnvelope cuts an envelope's wire form into its fields, views of
// data. It checks lengths only: whether the envelope opens is Decrypt's
// to say.
func ParseEnvelope(data []byte) (*Envelope, error) {
	if len(data) < EnvelopePrefix+AEADOverhead {
		return nil, errors.New("keys: malformed envelope")
	}
	const wrapAt, nonceAt = ShareSize, ShareSize + WrapSize
	return &Envelope{
		Ephemeral:  data[:wrapAt:wrapAt],
		Wrap:       data[wrapAt:nonceAt:nonceAt],
		Nonce:      data[nonceAt:EnvelopePrefix:EnvelopePrefix],
		Ciphertext: data[EnvelopePrefix:],
		wire:       data,
	}, nil
}
