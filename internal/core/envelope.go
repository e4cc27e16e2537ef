package core

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/xmldoc"
)

// Mode selects how the secure messaging envelope protects a payload.
// The paper's primitive is sign-then-encrypt (ModeFull); the degraded
// modes exist for the ablation benchmarks (experiment A2) and for
// applications that only need one property.
type Mode byte

// Envelope modes.
const (
	// ModeFull is E_PK(m, S_SK(m)): privacy, integrity and source
	// authentication (the paper's secureMsgPeer).
	ModeFull Mode = 'F'
	// ModeSign sends m, S_SK(m) in the clear: integrity and source
	// authentication only.
	ModeSign Mode = 'S'
	// ModeEncrypt sends E_PK(m): privacy only, no authentication.
	ModeEncrypt Mode = 'E'
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

// envelope is the mode Seal is called with under sending mode m.
func (m Mode) envelope() Mode {
	if m == ModeChannel {
		return ModeFull
	}
	return m
}

func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "sign+encrypt"
	case ModeSign:
		return "sign-only"
	case ModeEncrypt:
		return "encrypt-only"
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
// Wire layout: one mode byte followed by a block. For ModeSign the block
// is plaintext; for ModeFull/ModeEncrypt it is a wrapped-key encryption
// (keys.Envelope) of the same block. The block itself is
//
//	u32 header length | header (canonical <SecureMessage> XML) | raw body
//
// The header carries the sender, group, timestamp and the body's SHA-256
// digest; a ModeFull header also names its recipient (To, the fingerprint
// of the key it is sealed to), so that the signed block means nothing
// re-encrypted to anyone else; in signed modes it also carries the
// sender's signature over the header (digest included), which
// transitively authenticates the body. Keeping the body out of the XML avoids Base64 inflation, so the
// secure message adds only a small constant to the wire size — the
// property behind Figure 2's falling overhead curve.
type Sealed struct {
	Mode Mode
	wire []byte
}

// Bytes returns the wire form.
func (s *Sealed) Bytes() []byte { return s.wire }

func headerDoc(sender keys.PeerID, group string, bodyDigest []byte, at time.Time) *xmldoc.Element {
	doc := xmldoc.New("SecureMessage", "")
	doc.AddText("Sender", string(sender))
	doc.AddText("Group", group)
	doc.AddText("BodyDigest", base64.StdEncoding.EncodeToString(bodyDigest))
	doc.AddText("Time", signedTime(at))
	return doc
}

// packBlock appends the block — the layout unpackBlock reads, and the
// only place the body is ever copied on the sending side.
func packBlock(dst, header, body []byte) []byte {
	return append(keys.AppendSection(dst, header), body...)
}

func unpackBlock(block []byte, name string) (*xmldoc.Element, []byte, error) {
	h, body, ok := keys.CutSection(block)
	if !ok {
		return nil, nil, ErrEnvelope
	}
	// Fast-path parse: headers are canonical bytes produced by the peer's
	// Seal, so the parsed tree's canonical memos are seeded straight
	// from the wire — the CanonicalSkip/Canonical calls inside signature
	// verification become pointer reads. A header outside the canonical
	// subset is malformed by protocol definition. The tree and the body
	// alias block, which this receive path owns and never writes again.
	header, err := xmldoc.ParseCanonical(h)
	if err != nil || header.Name != name {
		return nil, nil, ErrEnvelope
	}
	return header, body, nil
}

// sealedLen is the length of the sealed block of header and body: what a
// sealer leaves room for, so that the block is packed into the wire's one
// buffer and encrypted where it lies (keys.AEADSealInPlace).
func sealedLen(header, body []byte) int {
	return 4 + len(header) + len(body) + keys.AEADOverhead
}

// Seal produces the secure envelope for body (paper §4.3.1 step 4:
// Cl1 → Cl2: E_PKCl2(m, S_SKCl1(m))). recipient may be nil only for
// ModeSign. signer may be nil only for ModeEncrypt. body is only read,
// and read into the wire exactly once. The signed time is the wall's: a
// peer seals through seal, at its own.
func Seal(signer *keys.KeyPair, sender keys.PeerID, group string, body []byte, recipient *keys.PublicKey, mode Mode) (*Sealed, error) {
	return seal(signer, sender, group, body, recipient, mode, time.Now(), nil)
}

// seal is Seal at the sender's time now, with room for what a
// session-channel handshake adds to the header: extra, when set, adds its
// children before the header is signed.
func seal(signer *keys.KeyPair, sender keys.PeerID, group string, body []byte, recipient *keys.PublicKey, mode Mode, now time.Time, extra func(header *xmldoc.Element)) (*Sealed, error) {
	header := headerDoc(sender, group, keys.SHA256(body), now)
	if mode == ModeFull && recipient != nil {
		fp, err := recipient.Fingerprint()
		if err != nil {
			return nil, err
		}
		header.AddText("To", base64.StdEncoding.EncodeToString(fp[:]))
	}
	if extra != nil {
		extra(header)
	}
	if mode == ModeFull || mode == ModeSign {
		if signer == nil {
			return nil, errors.New("core: mode requires a signing key")
		}
		sig, err := signer.Sign(header.Canonical())
		if err != nil {
			return nil, err
		}
		header.AddText("Signature", base64.StdEncoding.EncodeToString(sig))
	}
	h := header.Canonical()
	switch mode {
	case ModeSign:
		wire := append(make([]byte, 0, 1+4+len(h)+len(body)), byte(mode))
		return &Sealed{Mode: mode, wire: packBlock(wire, h, body)}, nil
	case ModeFull, ModeEncrypt:
		if recipient == nil {
			return nil, errors.New("core: mode requires a recipient key")
		}
		// The keys.Envelope sections behind the mode byte — wrapped key,
		// nonce, ciphertext — written into the one buffer the ciphertext
		// is then made in.
		cek, wrap, err := recipient.NewWrappedKey()
		if err != nil {
			return nil, err
		}
		nonce, err := keys.RandomBytes(keys.AEADNonceSize)
		if err != nil {
			return nil, err
		}
		n := sealedLen(h, body)
		wire := append(make([]byte, 0, 1+4+len(wrap)+4+len(nonce)+4+n), byte(mode))
		wire = keys.AppendSection(keys.AppendSection(wire, wrap), nonce)
		wire = binary.BigEndian.AppendUint32(wire, uint32(n))
		if wire, err = keys.AEADSealInPlace(cek, nonce, packBlock(wire, h, body), len(wire)); err != nil {
			return nil, err
		}
		return &Sealed{Mode: mode, wire: wire}, nil
	default:
		return nil, fmt.Errorf("core: unknown envelope mode %q", mode)
	}
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

	sigDoc   []byte          // canonical signed header bytes
	sig      []byte          // detached signature, nil for ModeEncrypt
	headerEl *xmldoc.Element // parsed header incl. signature (slices)

	// What session channels add (channel.go), behind one pointer so that
	// an Opened — one is allocated per open, of a slice as of a frame — is
	// no larger for it. Never nil on an Opened that openWire made.
	*channelPart
}

// HeaderXML returns the full canonical header bytes, signature included
// (slices only, nil otherwise): the one signed header every slice of the
// round carries. It exists for diagnostics and for the attack suite,
// which uses it to act as a malicious round member splicing a validly
// signed header into forged wires. Serialization is deferred to this
// call so the production receive path never pays it.
func (o *Opened) HeaderXML() []byte {
	if o.headerEl == nil {
		return nil
	}
	return o.headerEl.Canonical()
}

// Open decrypts and parses a secure envelope addressed to own (the
// pipeline in open.go). The body digest in the header is always checked;
// the header signature is deferred to VerifySignature. Round wires are
// refused: callers on round-tracking surfaces use OpenSlice.
func Open(own *keys.KeyPair, wire []byte) (*Opened, error) {
	return openCopy(own, wire, formEnvelope, nil)
}

// Signed reports whether the message carries a signature.
func (o *Opened) Signed() bool { return o.sig != nil }

// VerifySignature checks the sender signature against the certified
// public key the caller obtained from the sender's signed advertisement.
// The signature covers the header including the body digest, so a valid
// signature authenticates the body as well.
func (o *Opened) VerifySignature(senderKey *keys.PublicKey) error {
	if o.sig == nil {
		return ErrNoSignature
	}
	if err := senderKey.Verify(o.sigDoc, o.sig); err != nil {
		return ErrSigInvalid
	}
	return nil
}
