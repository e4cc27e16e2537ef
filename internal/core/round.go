package core

import (
	"encoding/binary"
	"errors"
	"time"

	"jxtaoverlay/internal/keys"
)

// Group fan-out round sealing. The paper's secureMsgGroupPeer is N
// independent secureMsgPeer sends, so a 100-member round costs 100 RSA
// signatures — the flat ~385 µs/recipient the §5-style benchmarks
// record. The round format amortizes that: ONE header (timestamp +
// nonce + group + body digest + recipient-set binding) is signed once
// per round, the block is encrypted once under a fresh AES-256 content
// key, and the only per-recipient work is wrapping that key to each
// member (a public-key operation, ~10× cheaper than a signature).
//
// Wire layout (mode byte ModeGroup, then):
//
//	u32 wrap count
//	per wrap: 32-byte recipient key fingerprint | u32 length | RSA-OAEP wrapped CEK
//	u32 nonce length | AES-GCM nonce
//	AES-GCM ciphertext of ( u32 header length | header XML | raw body )
//
// Every recipient receives the same bytes; OpenGroup locates its wrap by
// key fingerprint. The header is inside the ciphertext, so the round
// leaks no more metadata than ModeFull does.
//
// Shared-header semantics (see SECURITY.md): the signature covers one
// header for the whole round, so recipients share the timestamp and
// nonce, and the signature alone no longer binds the message to a single
// recipient. Two mechanisms restore the per-recipient guarantees:
//
//   - the signed Recipients element is a digest of the ordered recipient
//     key fingerprints, so a signed header replayed against a different
//     recipient set fails OpenGroup (ErrRoundBinding);
//   - the signed Nonce is single-use per sender; receivers track it in
//     their ReplayGuard (CheckRound), so a round member re-encrypting
//     the same signed header to the same set is rejected as a replay.

// ErrRoundBinding is returned when a round header's signed recipient-set
// digest does not match the key wraps on the wire.
var ErrRoundBinding = errors.New("core: round header does not match recipient set")

// roundNonceSize is the length of the single-use round nonce.
const roundNonceSize = 16

// maxRoundRecipients bounds the recipients of one round (senders split
// larger groups into consecutive rounds; parsers refuse a larger count).
const maxRoundRecipients = 4096

// roundHeaderName is the XML element name of the signed round header.
const roundHeaderName = "SecureRound"

// recipientsDigest binds the round header to the ordered recipient set:
// SHA-256 over the concatenated recipient key fingerprints.
func recipientsDigest(fps [][32]byte) []byte {
	buf := make([]byte, 0, len(fps)*32)
	for i := range fps {
		buf = append(buf, fps[i][:]...)
	}
	return keys.SHA256(buf)
}

// SealGroup produces one secure envelope for a whole fan-out round:
// sign-then-encrypt with a single header signature regardless of the
// recipient count. The returned wire is identical for every recipient —
// callers send the same bytes to each member and each member's OpenGroup
// unwraps its own key. Senders that hand the round to a relay for
// per-recipient slicing use SealGroupDetached instead (same sealing, a
// choice of assemblies).
func SealGroup(signer *keys.KeyPair, sender keys.PeerID, group string, body []byte, recipients []*keys.PublicKey) (*Sealed, error) {
	d, err := SealGroupDetached(signer, sender, group, body, recipients)
	if err != nil {
		return nil, err
	}
	return &Sealed{Mode: ModeGroup, wire: d.Wire()}, nil
}

// signedTime renders a time the way every signed body carries one.
func signedTime(at time.Time) string { return at.UTC().Format(time.RFC3339Nano) }

// parseRoundWire reads a ModeGroup payload into sliceable form. The
// count prefix is checked against the bytes that follow before it sizes
// anything, so a hostile prefix cannot drive the allocation.
func parseRoundWire(payload []byte) (*DetachedRound, error) {
	if len(payload) < 4 {
		return nil, ErrEnvelope
	}
	n := binary.BigEndian.Uint32(payload[:4])
	payload = payload[4:]
	if n == 0 || n > maxRoundRecipients || uint64(len(payload)) < 36*uint64(n) {
		return nil, ErrEnvelope
	}
	rw := &DetachedRound{fps: make([][32]byte, n), wraps: make([][]byte, n)}
	var ok bool
	for i := range rw.wraps {
		if len(payload) < 32 {
			return nil, ErrEnvelope
		}
		copy(rw.fps[i][:], payload)
		if rw.wraps[i], payload, ok = keys.CutSection(payload[32:]); !ok {
			return nil, ErrEnvelope
		}
	}
	if rw.gcmNonce, rw.ct, ok = keys.CutSection(payload); !ok || len(rw.gcmNonce) > 64 {
		return nil, ErrEnvelope
	}
	return rw, nil
}

// OpenGroup decrypts and parses a group round envelope addressed (among
// others) to own (the pipeline in open.go). Beyond the checks Open
// performs, it enforces the round semantics: the signed recipient-set
// digest must match the key wraps on the wire, and — when a ReplayGuard
// is supplied — the wire and the signed round nonce must both be fresh
// (single use within the guard's window). The header signature itself is
// deferred to VerifySignature, exactly as in the unicast path.
func OpenGroup(own *keys.KeyPair, wire []byte, guard *ReplayGuard) (*Opened, error) {
	return openCopy(own, wire, formGroup, guard)
}
