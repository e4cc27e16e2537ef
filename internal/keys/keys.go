// Package keys provides the cryptographic primitives the JXTA-Overlay
// security extension is built from: RSA key pairs, detached signatures,
// the paper's encryption E_PK(x) as ECIES to the X25519 agreement key a
// credential certifies beside the RSA key (wrap.go), crypto-based
// identifiers (CBIDs [20]) binding peer IDs to public keys, and PBKDF2
// password hashing for the central database.
//
// Everything here uses only the Go standard library. RSASSA-PKCS1-v1_5
// with SHA-256 signs (what XMLdsig's rsa-sha256 URI denotes), as in the
// paper's era; X25519 and HKDF-SHA256 wrap an AES-256-GCM content key for
// encryption, where the paper wraps it under RSA (PKCS#1 v2.0 [19]).
package keys

import (
	"bytes"
	"crypto"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/base64"
	"encoding/binary"
	"encoding/pem"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"jxtaoverlay/internal/lru"
)

// DefaultRSABits is the key size used when callers do not specify one.
// The paper's testbed era default (1024) is kept for faithful overhead
// reproduction; production deployments should raise it (see KeyPairBits).
const DefaultRSABits = 1024

// MinRSABits is the smallest key size accepted: the paper's testbed size.
const MinRSABits = 1024

var (
	// ErrVerify is returned when a signature does not validate.
	ErrVerify = errors.New("keys: signature verification failed")
	// ErrDecrypt is returned when an envelope cannot be opened.
	ErrDecrypt = errors.New("keys: decryption failed")
	// ErrKeySize is returned for unsupported RSA key sizes.
	ErrKeySize = fmt.Errorf("keys: RSA key size below minimum %d bits", MinRSABits)
)

// KeyPair is an RSA key pair owned by one JXTA-Overlay entity
// (administrator, broker or client peer).
type KeyPair struct {
	priv *rsa.PrivateKey
	// pub memoizes Public so every caller shares one PublicKey wrapper
	// (and with it the wrapper's fingerprint memo).
	pub atomic.Pointer[PublicKey]
	// sigCalls counts Sign invocations. Signatures are the dominant
	// cost of the secure primitives, so tests and benchmarks assert on
	// this counter (e.g. "one header signature per fan-out round").
	sigCalls atomic.Uint64
	// agreeCalls counts the X25519 operations of the agreement key derived
	// from priv and of the round keys drawn from the pair (wrap.go).
	agreeCalls atomic.Uint64
	// agree memoizes the X25519 agreement key derived from priv (wrap.go).
	agree atomic.Pointer[AgreementKey]
	// docs memoizes the signatures SignDocument produced, by digest.
	docs atomic.Pointer[lru.Cache[[32]byte, []byte]]
}

// docMemoCap bounds a key pair's memo of document signatures: a client
// republishes one pipe advertisement per group it joins; the margin keeps
// a few documents of a former session.
const docMemoCap = 64

// NewKeyPair generates a key pair of DefaultRSABits using crypto/rand.
func NewKeyPair() (*KeyPair, error) { return KeyPairBits(DefaultRSABits) }

// KeyPairBits generates a key pair with the given modulus size.
func KeyPairBits(bits int) (*KeyPair, error) {
	if bits < MinRSABits {
		return nil, ErrKeySize
	}
	priv, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, fmt.Errorf("keys: generate: %w", err)
	}
	return &KeyPair{priv: priv}, nil
}

// KeyPairFrom generates a key pair reading randomness from r. It exists
// so tests and deterministic simulations can derive stable keys from a
// seed; it must never be used with a non-cryptographic reader in
// production paths.
func KeyPairFrom(r io.Reader, bits int) (*KeyPair, error) {
	if bits < MinRSABits {
		return nil, ErrKeySize
	}
	priv, err := rsa.GenerateKey(r, bits)
	if err != nil {
		return nil, fmt.Errorf("keys: generate: %w", err)
	}
	return &KeyPair{priv: priv}, nil
}

// Public returns the public half, carrying the agreement key derived from
// the pair as its share. The wrapper is shared across calls.
func (k *KeyPair) Public() *PublicKey {
	if p := k.pub.Load(); p != nil {
		return p
	}
	p := &PublicKey{pub: &k.priv.PublicKey, share: k.agreement().share, certified: true}
	k.pub.Store(p)
	return p
}

// Bits returns the modulus size in bits.
func (k *KeyPair) Bits() int { return k.priv.N.BitLen() }

// Sign produces a detached RSASSA-PKCS1-v1_5/SHA-256 signature over msg.
func (k *KeyPair) Sign(msg []byte) ([]byte, error) {
	return k.signDigest(sha256.Sum256(msg))
}

func (k *KeyPair) signDigest(digest [32]byte) ([]byte, error) {
	k.sigCalls.Add(1)
	sig, err := rsa.SignPKCS1v15(rand.Reader, k.priv, crypto.SHA256, digest[:])
	if err != nil {
		return nil, fmt.Errorf("keys: sign: %w", err)
	}
	return sig, nil
}

// SignDocument is Sign for a document the pair may publish again byte for
// byte (an advertisement's SignedInfo): RSASSA-PKCS1-v1_5 is
// deterministic, so the signature of a document already signed is
// answered from a memo of the docMemoCap most recently used, without the
// private-key operation. The signature returned is shared and must not be modified.
// A message carries a nonce, a session identifier or a time and never
// repeats: it goes to Sign and never enters the memo.
func (k *KeyPair) SignDocument(doc []byte) ([]byte, error) {
	digest := sha256.Sum256(doc)
	memo := k.docMemo()
	if sig, ok := memo.Get(digest, time.Time{}); ok {
		return sig, nil
	}
	// The runtime verifies what the private-key operation produced before
	// it returns it, so the memo keeps only checked signatures.
	sig, err := k.signDigest(digest)
	if err != nil {
		return nil, err
	}
	memo.Put(digest, sig, time.Time{})
	return sig, nil
}

// docMemo is the memo of SignDocument, made on first use.
func (k *KeyPair) docMemo() *lru.Cache[[32]byte, []byte] {
	if m := k.docs.Load(); m != nil {
		return m
	}
	m := lru.New[[32]byte, []byte](docMemoCap)
	if !k.docs.CompareAndSwap(nil, m) {
		return k.docs.Load()
	}
	return m
}

// SignCalls reports how many RSA private-key operations this key pair
// has performed: a signature SignDocument answers from its memo is none.
// Benchmarks and tests use it to assert signature amortization (e.g. a
// group fan-out round must cost exactly one signature).
func (k *KeyPair) SignCalls() uint64 { return k.sigCalls.Load() }

// UnwrapKey recovers a content key wrapped with PublicKey.WrapKey for
// this key pair (see WrapKey: no production path calls it).
func (k *KeyPair) UnwrapKey(wrapped []byte) ([]byte, error) {
	cek, err := rsa.DecryptOAEP(sha256.New(), rand.Reader, k.priv, wrapped, oaepLabel)
	if err != nil {
		return nil, ErrDecrypt
	}
	return cek, nil
}

// AgreeCalls reports how many X25519 operations this key pair's agreement
// key and the round keys drawn from it (NewRoundKey) have performed. An
// agreement answered from a memo is none.
func (k *KeyPair) AgreeCalls() uint64 { return k.agreeCalls.Load() }

// MarshalPEM serializes the private key as PKCS#8 PEM, for keystore
// persistence (the PSE-like membership service).
func (k *KeyPair) MarshalPEM() ([]byte, error) {
	der, err := x509.MarshalPKCS8PrivateKey(k.priv)
	if err != nil {
		return nil, fmt.Errorf("keys: marshal private: %w", err)
	}
	return pem.EncodeToMemory(&pem.Block{Type: "PRIVATE KEY", Bytes: der}), nil
}

// ParseKeyPairPEM reads a PKCS#8 PEM private key.
func ParseKeyPairPEM(data []byte) (*KeyPair, error) {
	block, _ := pem.Decode(data)
	if block == nil || block.Type != "PRIVATE KEY" {
		return nil, errors.New("keys: no PRIVATE KEY block")
	}
	key, err := x509.ParsePKCS8PrivateKey(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("keys: parse private: %w", err)
	}
	priv, ok := key.(*rsa.PrivateKey)
	if !ok {
		return nil, errors.New("keys: not an RSA private key")
	}
	return &KeyPair{priv: priv}, nil
}

// PublicKey is the shareable half of a KeyPair; it travels inside
// credentials and signed advertisements. Beside the RSA key it may carry
// an X25519 agreement key (wrap.go): the one its client credential
// certifies, or for a key pair's own public half the one derived from it.
// The fingerprint, the CBID and every signature are the RSA key's alone.
type PublicKey struct {
	pub *rsa.PublicKey
	// share is the agreement key, when certified is set.
	share     [ShareSize]byte
	certified bool
	// enc memoizes the PKIX encoding and its digest: every credential
	// document embeds the first and every verification-cache key and CBID
	// check takes the second, far too often to serialize the key each
	// time. Keys are immutable after construction, so the memo never goes
	// stale.
	enc atomic.Pointer[pkixMemo]
	// agree memoizes the agreement key in the form X25519 takes.
	agree atomic.Pointer[agreeMemo]
}

type pkixMemo struct {
	der []byte
	fp  [32]byte
}

func (p *PublicKey) pkix() (*pkixMemo, error) {
	if m := p.enc.Load(); m != nil {
		return m, nil
	}
	der, err := x509.MarshalPKIXPublicKey(p.pub)
	if err != nil {
		return nil, fmt.Errorf("keys: marshal public: %w", err)
	}
	m := &pkixMemo{der: der, fp: sha256.Sum256(der)}
	p.enc.Store(m)
	return m, nil
}

// Verify checks a detached signature produced by KeyPair.Sign.
func (p *PublicKey) Verify(msg, sig []byte) error {
	digest := sha256.Sum256(msg)
	if err := rsa.VerifyPKCS1v15(p.pub, crypto.SHA256, digest[:], sig); err != nil {
		return ErrVerify
	}
	return nil
}

// oaepLabel domain-separates the wrapped keys from any other OAEP use.
var oaepLabel = []byte("jxta-overlay/wrapped-key/v1")

// WrapKey encrypts a content key to this public key under RSA-OAEP, the
// wrap this package's envelopes used before the certified agreement key
// (wrap.go). No message, request or round is wrapped with it any more:
// it is kept, with UnwrapKey, as the reference row cmd/perf prices.
func (p *PublicKey) WrapKey(cek []byte) ([]byte, error) {
	wrapped, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, p.pub, cek, oaepLabel)
	if err != nil {
		return nil, fmt.Errorf("keys: wrap: %w", err)
	}
	return wrapped, nil
}

// NewContentKey returns a fresh AES-256 content key.
func NewContentKey() ([]byte, error) {
	cek := make([]byte, ContentKeySize)
	if _, err := rand.Read(cek); err != nil {
		return nil, fmt.Errorf("keys: cek: %w", err)
	}
	return cek, nil
}

// AEAD sizes: the nonce a sealing takes and the tag it appends.
const (
	AEADNonceSize = 12
	AEADOverhead  = 16
)

// AEADSeal encrypts plain under the content key with AES-GCM and a
// fresh random nonce, returning nonce and ciphertext.
func AEADSeal(cek, plain []byte) (nonce, ciphertext []byte, err error) {
	if nonce, err = RandomBytes(AEADNonceSize); err != nil {
		return nil, nil, err
	}
	ciphertext, err = aeadSeal(nil, cek, nonce, plain)
	return nonce, ciphertext, err
}

// AEADSealInPlace encrypts buf[from:] where it lies and appends the tag:
// a caller that sized buf with AEADOverhead to spare seals a message in
// the one buffer it assembled it in.
func AEADSealInPlace(cek, nonce, buf []byte, from int) ([]byte, error) {
	return aeadSeal(buf[:from], cek, nonce, buf[from:])
}

func aeadSeal(dst, cek, nonce, plain []byte) ([]byte, error) {
	gcm, err := newGCM(cek)
	if err != nil {
		return nil, err
	}
	return gcm.Seal(dst, nonce, plain, nil), nil
}

// AEADOpen reverses AEADSeal. The ciphertext is left as it was.
func AEADOpen(cek, nonce, ciphertext []byte) ([]byte, error) {
	return aeadOpen(nil, cek, nonce, ciphertext)
}

// AEADOpenInPlace is AEADOpen writing the plaintext over the ciphertext
// it reads: the result is a view of ciphertext, whose old contents are
// gone — after a failure too. Only the owner of the bytes may call it.
func AEADOpenInPlace(cek, nonce, ciphertext []byte) ([]byte, error) {
	return aeadOpen(ciphertext[:0], cek, nonce, ciphertext)
}

func aeadOpen(dst, cek, nonce, ciphertext []byte) ([]byte, error) {
	gcm, err := newGCM(cek)
	if err != nil || len(nonce) != gcm.NonceSize() {
		return nil, ErrDecrypt
	}
	plain, err := gcm.Open(dst, nonce, ciphertext, nil)
	if err != nil {
		return nil, ErrDecrypt
	}
	return plain, nil
}

func newGCM(cek []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(cek)
	if err != nil {
		return nil, fmt.Errorf("keys: cipher: %w", err)
	}
	return cipher.NewGCM(block)
}

// AppendSection appends part behind its big-endian u32 length: the
// framing of the variable-length names a key derivation's info strings
// carry.
func AppendSection(dst, part []byte) []byte {
	return append(binary.BigEndian.AppendUint32(dst, uint32(len(part))), part...)
}

// MarshalDER serializes a public key as PKIX DER. The encoding is
// memoized; each caller gets its own copy.
func (p *PublicKey) MarshalDER() ([]byte, error) {
	m, err := p.pkix()
	if err != nil {
		return nil, err
	}
	return bytes.Clone(m.der), nil
}

// MarshalBase64 serializes a public key as base64(PKIX DER), the form
// embedded in XML credentials and advertisements.
func (p *PublicKey) MarshalBase64() (string, error) {
	m, err := p.pkix()
	if err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(m.der), nil
}

// ParsePublicDER reads a PKIX DER public key. The bytes read are the
// key's PKIX encoding from then on: its fingerprint is their digest.
func ParsePublicDER(der []byte) (*PublicKey, error) { return parsePublic(bytes.Clone(der)) }

// parsePublic is ParsePublicDER keeping der, which the caller hands over.
func parsePublic(der []byte) (*PublicKey, error) {
	key, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("keys: parse public: %w", err)
	}
	pub, ok := key.(*rsa.PublicKey)
	if !ok {
		return nil, errors.New("keys: not an RSA public key")
	}
	p := &PublicKey{pub: pub}
	p.enc.Store(&pkixMemo{der: der, fp: sha256.Sum256(der)})
	return p, nil
}

// Strict decoders read only the one spelling EncodeToString writes of
// each byte string (length checks rule out the newlines they skip).
var (
	strictBase64      = base64.StdEncoding.Strict()
	strictShareBase64 = base64.RawStdEncoding.Strict()
)

// ParsePublicBase64 reads a base64(PKIX DER) public key and, unless share
// is empty, the agreement key it carries in unpadded base64. Both must be
// in the spelling MarshalBase64 and ShareBase64 write, and the share must
// be ShareSize bytes.
func ParsePublicBase64(key, share string) (*PublicKey, error) {
	der, err := strictBase64.DecodeString(key)
	if err != nil || base64.StdEncoding.EncodedLen(len(der)) != len(key) {
		return nil, errors.New("keys: public key base64 malformed")
	}
	p, err := parsePublic(der)
	if err != nil || share == "" {
		return p, err
	}
	// Decoded through a buffer on the stack: a credential parse allocates
	// nothing for its share.
	var src [shareBase64Len]byte
	var dst [ShareSize + 1]byte
	if len(share) != len(src) {
		return nil, ErrAgree
	}
	copy(src[:], share)
	if n, err := strictShareBase64.Decode(dst[:], src[:]); err != nil || n != ShareSize {
		return nil, ErrAgree
	}
	p.share, p.certified = [ShareSize]byte(dst[:ShareSize]), true
	return p, nil
}

// shareBase64Len is the length of a share in unpadded base64.
const shareBase64Len = (ShareSize*8 + 5) / 6

// ShareBase64 is the key's agreement key in unpadded base64, the form
// credentials and login requests carry, or "" when it carries none.
func (p *PublicKey) ShareBase64() string {
	if !p.certified {
		return ""
	}
	return base64.RawStdEncoding.EncodeToString(p.share[:])
}

// AgreementShare returns the key's agreement key, and whether it carries
// one.
func (p *PublicKey) AgreementShare() (share [ShareSize]byte, ok bool) {
	return p.share, p.certified
}

// WithShare returns the key carrying share as its agreement key, or none
// when share is nil. The RSA key and its memoized encoding are shared.
func (p *PublicKey) WithShare(share *[ShareSize]byte) *PublicKey {
	if share == nil && !p.certified {
		return p
	}
	q := &PublicKey{pub: p.pub}
	if share != nil {
		q.share, q.certified = *share, true
	}
	if m := p.enc.Load(); m != nil {
		q.enc.Store(m)
	}
	return q
}

// Fingerprint returns the SHA-256 digest of the PKIX encoding; CBIDs and
// verification-cache keys are derived from it. The digest is memoized.
func (p *PublicKey) Fingerprint() ([32]byte, error) {
	m, err := p.pkix()
	if err != nil {
		return [32]byte{}, err
	}
	return m.fp, nil
}

// Equal reports whether two public keys are the same key carrying the same
// agreement key, or both none.
func (p *PublicKey) Equal(o *PublicKey) bool {
	return p.SameIdentity(o) && (p == nil || (p.certified == o.certified && p.share == o.share))
}

// SameIdentity reports whether two public keys share their RSA key — the
// key signatures, fingerprints and CBIDs are of — whatever agreement key
// each carries.
func (p *PublicKey) SameIdentity(o *PublicKey) bool {
	if p == nil || o == nil {
		return p == o
	}
	return p.pub.Equal(o.pub)
}

// RandomBytes returns n cryptographically random bytes; it backs
// challenge and session-identifier generation.
func RandomBytes(n int) ([]byte, error) {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		return nil, fmt.Errorf("keys: random: %w", err)
	}
	return b, nil
}

// PBKDF2 derives a key from a password with HMAC-SHA256, per RFC 2898.
// The central database stores only PBKDF2 hashes of end-user passwords.
func PBKDF2(password, salt []byte, iter, keyLen int) []byte {
	prf := hmac.New(sha256.New, password)
	hashLen := prf.Size()
	numBlocks := (keyLen + hashLen - 1) / hashLen
	dk := make([]byte, 0, numBlocks*hashLen)
	var block [4]byte
	u := make([]byte, hashLen)
	for i := 1; i <= numBlocks; i++ {
		prf.Reset()
		prf.Write(salt)
		binary.BigEndian.PutUint32(block[:], uint32(i))
		prf.Write(block[:])
		t := prf.Sum(nil)
		copy(u, t)
		for n := 2; n <= iter; n++ {
			prf.Reset()
			prf.Write(u)
			sum := prf.Sum(u[:0])
			for x := range t {
				t[x] ^= sum[x]
			}
		}
		dk = append(dk, t...)
	}
	return dk[:keyLen]
}

// ConstantTimeEqual compares two byte strings without leaking length
// position information about the mismatch.
func ConstantTimeEqual(a, b []byte) bool {
	return hmac.Equal(a, b)
}

// SHA256 returns the SHA-256 digest of data as a slice; it is the digest
// algorithm used throughout the extension (XMLdsig digests, CBIDs).
func SHA256(data []byte) []byte {
	sum := sha256.Sum256(data)
	return sum[:]
}
