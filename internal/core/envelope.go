package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"jxtaoverlay/internal/keys"
)

// Mode names a secure wire's form, and a client's sending mode. The
// paper's primitive is sign-then-encrypt (ModeFull), and every message
// form is either that, signed and sealed, or a frame on a channel that a
// signed offer established.
type Mode byte

// Envelope modes.
const (
	// ModeFull is E_PK(m, S_SK(m)): privacy, integrity and source
	// authentication (the paper's secureMsgPeer).
	ModeFull Mode = 'F'
	// ModeGroup is a whole fan-out round: one signed round header
	// (timestamp + nonce + slice tree root) and every recipient's key
	// wrap. It is the relayRound upload only, which the relay cuts into
	// slices; no recipient opens it. See round.go.
	ModeGroup Mode = 'G'
	// ModeSlice is one recipient's cut of a round, and the one form a
	// round reaches a recipient in: the shared ciphertext plus only that
	// recipient's key wrap and a Merkle inclusion proof binding the slice
	// to the signed round header. A sender cuts them for a direct fan-out;
	// a relay cuts them from an uploaded round without holding keys or
	// plaintext. See SliceRound/OpenSlice in slice.go.
	ModeSlice Mode = 'L'
	// ModeChannel is one message on an established session channel: a
	// single AEAD frame under the key the two peers agreed on, no
	// signature and no key wrap. As a sending mode (the default) it is
	// ModeFull with the agreement riding the first envelope to a peer and
	// frames afterwards; everything that is not a unicast message treats it
	// as ModeFull. See channel.go.
	ModeChannel Mode = 'C'
	// ModeRefusal is the unsigned answer to a channel frame whose channel
	// the recipient does not hold; it carries no message.
	ModeRefusal Mode = 'R'
	// ModeAccept is the unsigned answer to a channel offer: the
	// responder's ephemeral share and a key confirmation that only the
	// offered peer's certified agreement key can produce; it carries no
	// message.
	ModeAccept Mode = 'A'
)

func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "sign+encrypt"
	case ModeGroup:
		return "group-round"
	case ModeSlice:
		return "round-slice"
	case ModeChannel:
		return "channel"
	case ModeRefusal:
		return "channel-refusal"
	case ModeAccept:
		return "channel-accept"
	default:
		return fmt.Sprintf("mode(%c)", byte(m))
	}
}

// Envelope errors.
var (
	ErrEnvelope     = errors.New("core: malformed secure envelope")
	ErrNotRecipient = errors.New("core: envelope not addressed to this peer")
	ErrNoSignature  = errors.New("core: envelope carries no signature")
	ErrSigInvalid   = errors.New("core: envelope signature invalid")
	ErrBodyDigest   = errors.New("core: envelope body digest mismatch")
)

// Sealed is the transportable secure message.
//
// Wire layout: the mode byte ModeFull followed by a block sealed in a
// keys.Envelope: ECIES to the agreement key the recipient's credential
// certifies, the sender's share, the wrap and the AEAD nonce in front of
// the ciphertext. The block itself is
//
//	header (header.go) | raw body
//
// The header carries the mode, sender, group, timestamp and the body's
// SHA-256 digest; it names its recipient (To, the fingerprint of the key
// it is sealed to), so that the signed block means nothing re-sealed to
// anyone else; and it ends in the sender's signature over the rest of it
// (digest included), which transitively authenticates the body. Keeping
// the body out of the header avoids copying it through an encoding, so
// the secure message adds only a small constant to the wire size — the
// property behind Figure 2's falling overhead curve.
type Sealed struct {
	Mode Mode
	wire []byte
}

// Bytes returns the wire form.
func (s *Sealed) Bytes() []byte { return s.wire }

// appendBlock appends the block — header, then body — and is the only
// place the body is ever copied on the sending side. h is signed by
// signer.
func appendBlock(dst []byte, h *header, signer *keys.KeyPair, body []byte) ([]byte, error) {
	dst, err := appendHeader(dst, h, signer)
	return append(dst, body...), err
}

// Seal produces the secure envelope for body (paper §4.3.1 step 4:
// Cl1 → Cl2: E_PKCl2(m, S_SKCl1(m))). mode must be ModeFull, the one
// envelope there is. body is only read, and read into the wire exactly
// once. The signed time is the wall's: a peer seals through seal, at its
// own.
func Seal(signer *keys.KeyPair, sender keys.PeerID, group string, body []byte, recipient *keys.PublicKey, mode Mode) (*Sealed, error) {
	if mode != ModeFull {
		return nil, fmt.Errorf("core: unknown envelope mode %q", mode)
	}
	return seal(signer, &header{sender: sender, group: group, at: time.Now().UnixNano()}, body, recipient)
}

// seal is Seal for the header h begins, in a buffer of its own: a caller
// without a frame to seal into (Seal, a task request and its answer).
func seal(signer *keys.KeyPair, h *header, body []byte, recipient *keys.PublicKey) (*Sealed, error) {
	e, err := newEnvelope(signer, h, body, recipient)
	if err != nil {
		return nil, err
	}
	wire, err := e.seal(make([]byte, 0, e.size()))
	if err != nil {
		return nil, err
	}
	return &Sealed{Mode: ModeFull, wire: wire}, nil
}

// envelope is one envelope ready to seal: its header complete but for the
// signature, which seal makes.
type envelope struct {
	signer    *keys.KeyPair
	h         *header
	body      []byte
	recipient *keys.PublicKey
}

// newEnvelope completes the header h begins — its sender, group and time,
// and whatever a session-channel handshake adds to it (an offer, the
// frame a message is sent again for) — for body and recipient.
func newEnvelope(signer *keys.KeyPair, h *header, body []byte, recipient *keys.PublicKey) (*envelope, error) {
	if signer == nil || recipient == nil {
		return nil, errors.New("core: an envelope needs a signing key and a recipient key")
	}
	fp, err := recipient.Fingerprint()
	if err != nil {
		return nil, err
	}
	digest := sha256.Sum256(body)
	h.kind, h.digest, h.to = ModeFull, digest[:], fp[:]
	return &envelope{signer, h, body, recipient}, nil
}

// size is the length of the envelope's wire.
func (e *envelope) size() int {
	return 1 + keys.EnvelopePrefix + headerSize(e.h, e.signer) + len(e.body) + keys.AEADOverhead
}

// seal appends the envelope's wire to dst, e.size() bytes: the block is
// written behind room for the envelope's fields and sealed where it lies —
// in dst's own memory when it has the capacity, the endpoint frame a send
// seals into. The signature it makes is left in the header.
func (e *envelope) seal(dst []byte) ([]byte, error) {
	at := len(dst) + 1
	dst = append(append(dst, byte(ModeFull)), make([]byte, keys.EnvelopePrefix)...)
	dst, err := appendBlock(dst, e.h, e.signer, e.body)
	if err != nil {
		return nil, err
	}
	return keys.SealEnvelope(dst, at, e.recipient)
}

// Opened is a decrypted (but not yet authenticated) secure message.
// Callers must complete verification with VerifySignature before
// trusting Sender — that is the paper's step 7, which requires the
// sender's certified public key from its signed advertisement.
type Opened struct {
	Mode   Mode
	Sender keys.PeerID
	Group  string
	Body   []byte
	SentAt time.Time
	// Nonce is the single-use round nonce (ModeSlice, nil otherwise),
	// which the open path feeds to ReplayGuard.CheckRound.
	Nonce []byte

	header []byte // the header as it arrived, signature included; nil for a channel's wires
	sig    []byte // the header's signature, never empty; nil for a channel's wires

	// What session channels add (channel.go), behind one pointer so that
	// an Opened — one per open, of a slice as of a frame, on its caller's
	// stack or (Open, OpenSlice) the heap — is no larger for it. Never nil
	// on an Opened that openWire made.
	*channelPart
}

// Header returns the signed header as it arrived, signature included
// (nil for a channel's frames, accepts and refusals): a view of the wire
// it was opened from. For a slice it is the one header every slice of the
// round carries. It exists for diagnostics and for the attack suite, which
// uses it to act as a malicious recipient splicing a validly signed header
// into forged wires.
func (o *Opened) Header() []byte { return o.header }

// Open decrypts and parses a secure envelope addressed to own (the
// pipeline in open.go). The body digest in the header is always checked;
// the header signature is deferred to VerifySignature. Round wires are
// refused: callers on round-tracking surfaces use OpenSlice.
func Open(own *keys.KeyPair, wire []byte) (*Opened, error) {
	return openCopy(own, wire, formEnvelope, nil)
}

// VerifySignature checks the sender signature against the certified
// public key the caller obtained from the sender's signed advertisement.
// The signature covers the header including the body digest, so a valid
// signature authenticates the body as well.
func (o *Opened) VerifySignature(senderKey *keys.PublicKey) error {
	if o.sig == nil {
		return ErrNoSignature
	}
	if err := verifyHeader(senderKey, o.header, o.sig); err != nil {
		return ErrSigInvalid
	}
	return nil
}
