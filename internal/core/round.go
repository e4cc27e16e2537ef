package core

import (
	"encoding/binary"
	"errors"

	"jxtaoverlay/internal/keys"
)

// Group fan-out round sealing. The paper's secureMsgGroupPeer is N
// independent secureMsgPeer sends, so a 100-member round costs 100 RSA
// signatures — the flat ~385 µs/recipient the §5-style benchmarks
// record. The round format amortizes that: ONE header (timestamp +
// nonce + group + body digest + slice tree root) is signed once per
// round, the block is encrypted once under a fresh AES-256 content key,
// and the only per-recipient work is wrapping that key to each member:
// ECIES to the X25519 agreement key the member's client credential
// certifies (keys/wrap.go), under the sender's round key — one ephemeral
// key a client holds for channelLifetime (SecureClient.roundKeyAt), each
// wrap bound to its round's AEAD nonce. Neither end performs an RSA
// private-key operation per recipient, and once both ends have met the
// round key, no key agreement either.
//
// A recipient receives the round one way: as its own ModeSlice cut
// (slice.go), carrying its wrap alone. The full wire below, every wrap
// at once, is the relay's upload format only (relayRound), which
// SliceRound cuts without keys; no recipient surface opens it.
//
// Full wire layout (mode byte ModeGroup, then):
//
//	u32 recipient count
//	32-byte ephemeral share E
//	per recipient: 32-byte recipient key fingerprint | 48-byte wrap
//	12-byte AES-GCM nonce
//	AES-GCM ciphertext of ( header (header.go) | raw body )
//
// The header is inside the ciphertext, so the round leaks no more
// metadata than ModeFull does.
//
// Shared-header semantics (see SECURITY.md): the signature covers one
// header for the whole round, so recipients share the timestamp and
// nonce, and the signature alone no longer binds the message to a single
// recipient. Two mechanisms restore the per-recipient guarantees:
//
//   - the signed SliceRoot commits to every (index, fingerprint, E, wrap)
//     leaf, so a signed header behind any other leaf — another
//     recipient, another wrap, another ephemeral — fails OpenSlice
//     (ErrRoundBinding);
//   - every wrap is bound to the AEAD nonce its round was sealed under,
//     so a round member re-sealing the signed header under a fresh nonce
//     behind another member's own leaf finds that member's wrap unwrapping
//     nothing (ErrNotRecipient); and the signed Nonce is single-use per
//     sender — receivers track it in their ReplayGuard (CheckRound) and
//     refuse a round delivered again as a replay.

// ErrRoundBinding is returned when a round header's signed slice tree
// root does not match the leaf and proof on the wire.
var ErrRoundBinding = errors.New("core: round header does not match recipient set")

// roundNonceSize is the length of the single-use round nonce.
const roundNonceSize = 16

// maxRoundRecipients bounds the recipients of one round (senders split
// larger groups into consecutive rounds; parsers refuse a larger count).
const maxRoundRecipients = 4096

// roundEntry is one recipient's part of a round: its key fingerprint and
// its wrap.
const roundEntry = 32 + keys.WrapSize

// parseRoundWire reads a ModeGroup payload into sliceable form. The
// count prefix is checked against the bytes that follow before anything
// is cut, and nothing is sized by it: the entries stay a view.
func parseRoundWire(payload []byte) (*DetachedRound, error) {
	if len(payload) < 4+keys.ShareSize {
		return nil, ErrEnvelope
	}
	n := binary.BigEndian.Uint32(payload[:4])
	payload = payload[4:]
	if n == 0 || n > maxRoundRecipients || uint64(len(payload)) < keys.ShareSize+roundEntry*uint64(n)+keys.AEADNonceSize {
		return nil, ErrEnvelope
	}
	rw := &DetachedRound{eph: [keys.ShareSize]byte(payload[:keys.ShareSize])}
	payload = payload[keys.ShareSize:]
	end := roundEntry * int(n)
	rw.entries, payload = payload[:end:end], payload[end:]
	rw.gcmNonce, rw.ct = payload[:keys.AEADNonceSize:keys.AEADNonceSize], payload[keys.AEADNonceSize:]
	return rw, nil
}
