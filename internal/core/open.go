package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"jxtaoverlay/internal/keys"
)

// The open path. Every secure wire a stranger can hand this peer — a
// unicast envelope, a round's per-member slice, a session channel's frame,
// accept or refusal — is accepted or refused by openWire, and nowhere
// else: Open, OpenSlice, the client's two receivers (its group pipes, and
// the relay's slice push) and the secure task service all call it,
// differing only in which wire forms they accept. A full round
// (ModeGroup) is none of them: it is the relay's upload format, which
// SliceRound cuts without keys, and no recipient surface opens one. The
// steps and their order are the security argument (SECURITY.md, "Round
// header semantics"):
//
//	split wire            the one per-format step: pick out this peer's
//	                      own key wrap — or, for a frame, the channel it
//	                      names — and the AEAD inputs
//	content key, AEAD open  UnwrapFrom (an envelope's or a slice's wrap to
//	                      this peer's certified agreement key, bound to
//	                      its AEAD nonce), or the channel's key
//	                      from the table: nothing below runs on bytes that
//	                      neither this peer's private key nor a key agreed
//	                      under it released
//	parseHeader           the binary header (header.go), of the kind the
//	                      wire's form was sealed under, + body
//	body digest           the header's digest covers the body
//	recipient binding     To = own key (ModeFull envelope) / Merkle slice root
//	                      (slice) — BEFORE any signed field is read, so a
//	                      validly signed header spliced onto another leaf,
//	                      or re-sealed to another peer, vouches for
//	                      nothing
//	signature, nonce, handshake fields
//	                      a header without a signature is ErrNoSignature,
//	                      for every form; the signature itself is checked
//	                      by VerifySignature
//	claimed group         slices only, and BEFORE the guard: a mislabelled
//	                      delivery must not burn the single-use nonce
//	replay                one guard key per form: an envelope's wire
//	                      digest, a slice's signed round nonce
//
// A frame leaves the pipeline once its channel's key has opened it: four
// steps prove for a signed wire what its channel already has. No header
// to parse: sender and group are the channel's, the table's own strings.
// No body digest: that binds a body to the signature over the header, and
// the tag covers the 25 bytes in front, the time and the body together. No
// recipient binding: the key is derived from both peers, both certified
// keys and the group (channelKey), so nobody else's opens it. No entry in
// the guard's table, which is for wires without a sequence number: the
// same bytes again are the same number again and the channel's window
// refuses it, as it does a number below it; a channel replaced or a
// recipient restarted is an unknown channel, a refusal. What a frame still
// passes, in order: the guard's freshness window, then its number, once.
// So each form is admitted under one replay key: an envelope by its
// digest, a slice by its nonce, a frame by its number.
//
// An accept and a refusal carry no message and leave the pipeline once
// cut: neither is signed, neither enters the guard's table, and each is
// only a claim whose consumer decides what it may do. A refusal buys its
// sender the paper's primitive (handleRefusal); an accept completes the
// offer it names only under the tag that offer's key schedule derives
// (channelTable.accepted), and the same accept again completes nothing.
//
// The sender signature itself is checked by Opened.VerifySignature,
// which needs the sender's certified key and therefore a lookup; the
// guard admit comes before that lookup.
//
// openWire CONSUMES the wire: the AEAD opens in place, so the body it
// hands back is a view of the bytes that came in and the ciphertext is
// gone. Its callers that own what they pass — the client's receivers and
// the secure task service, each holding a frame the fabric delivered to
// it alone (package endpoint's ownership rule) — pass it as it is; Open
// and OpenSlice, whose callers keep their wire, pass a copy. Nothing else
// differs: an envelope's replay digest is of the wire as received, taken
// before the first byte is overwritten.

// ErrRoundGroup is returned when a slice is delivered under a group
// label other than the one its signed header names.
var ErrRoundGroup = errors.New("core: round delivered under wrong group")

// wireForms is the set of wire forms an entry point accepts.
type wireForms uint8

const (
	formEnvelope wireForms = 1 << iota // ModeFull
	formSlice                          // ModeSlice
	formChannel                        // ModeChannel, ModeRefusal, ModeAccept
)

// splitWire is a wire cut into the pipeline's inputs.
type splitWire struct {
	mode     Mode
	eph      []byte // the share the content key is wrapped under
	wrap     []byte // this peer's wrap of the content key
	gcmNonce []byte
	ct       []byte      // AEAD ciphertext of the block
	slice    parsedSlice // ModeSlice: the leaf and its sibling path, for the SliceRoot
	via      *inChannel  // ModeChannel: the channel the frame names, holder of its key
	frame    frameRef    // ModeChannel, ModeRefusal
}

// split parses wire according to its mode byte and selects own's wrap,
// or the channel in chans a frame names.
// A slice is refused on surfaces that did not ask for it: it carries a
// single-use nonce and a recipient-set binding that only mean something
// where round replays are tracked. A full round is refused everywhere.
func split(own *keys.KeyPair, wire []byte, accept wireForms, chans *channelTable, now time.Time) (sw splitWire, err error) {
	if len(wire) < 2 {
		return sw, ErrEnvelope
	}
	sw.mode = Mode(wire[0])
	payload := wire[1:]
	form := formEnvelope
	switch sw.mode {
	case ModeFull:
	case ModeSlice:
		form = formSlice
	case ModeChannel, ModeRefusal, ModeAccept:
		form = formChannel
	default:
		return sw, fmt.Errorf("%w: mode %q", ErrEnvelope, byte(sw.mode))
	}
	if accept&form == 0 || (form == formChannel && chans == nil) {
		return sw, fmt.Errorf("%w: %s not accepted here", ErrEnvelope, sw.mode)
	}
	if form == formChannel {
		if sw.mode == ModeAccept {
			if len(wire) != acceptSize {
				return sw, ErrEnvelope
			}
			return sw, nil
		}
		var ok bool
		if sw.frame, sw.ct, ok = parseFrame(payload); !ok || (sw.mode == ModeRefusal && len(sw.ct) != 0) {
			return sw, ErrEnvelope
		}
		if sw.mode == ModeChannel {
			if sw.via = chans.inbound(sw.frame.id, now); sw.via == nil {
				return sw, &unknownChannelError{sw.frame}
			}
		}
		return sw, nil
	}
	if own == nil {
		return sw, ErrNotRecipient
	}
	if form == formEnvelope {
		env, err := keys.ParseEnvelope(payload)
		if err != nil {
			return sw, ErrEnvelope
		}
		sw.eph, sw.wrap, sw.gcmNonce, sw.ct = env.Ephemeral, env.Wrap, env.Nonce, env.Ciphertext
		return sw, nil
	}
	ownFP, err := own.Public().Fingerprint()
	if err != nil {
		return sw, err
	}
	if sw.slice, err = parseSliceWire(payload); err != nil {
		return sw, err
	}
	ps := &sw.slice
	if [32]byte(ps.entry) != ownFP {
		return sw, ErrNotRecipient
	}
	sw.eph, sw.wrap, sw.gcmNonce, sw.ct = ps.eph, ps.entry[32:], ps.gcmNonce, ps.ct
	return sw, nil
}

// openWire decrypts (in place: wire is consumed), parses and admits one
// secure wire addressed to own, at the time now: the opening peer's, the
// one reading that the channel lookup and the guard admit judge by.
// claimed, when set, is the group label the delivery arrived under;
// guard, when set, admits the wire exactly once.
// What opened is written to o, which is returned: a caller that opens
// one wire at a time passes an Opened of its own stack.
// A refusal by either of those two steps comes after the header parsed,
// so it returns the Opened beside the error: callers attribute it to
// the signed sender rather than to whoever delivered the bytes; and so
// does a frame its channel's key opened, stale or replayed, to its peer.
func openWire(o *Opened, own *keys.KeyPair, wire []byte, accept wireForms, claimed *string, guard *ReplayGuard, chans *channelTable, now time.Time) (*Opened, error) {
	sw, err := split(own, wire, accept, chans, now)
	if err != nil {
		return nil, err
	}
	switch sw.mode {
	case ModeRefusal:
		// Nothing to open: an unsigned claim, which the initiator acts on
		// only as far as a stranger may make it act (handleRefusal).
		*o = Opened{Mode: ModeRefusal, channelPart: &channelPart{refusal: sw.frame}}
		return o, nil
	case ModeAccept:
		// Nor here: only the initiator holding the offer it names can check
		// its tag (channelTable.accepted).
		*o = Opened{Mode: ModeAccept, channelPart: &channelPart{accept: (*acceptWire)(wire)}}
		return o, nil
	}
	if c := sw.via; c != nil {
		// The third source of the content key: the table lookup split made.
		nonce := frameNonce(sw.frame.seq)
		plain, err := c.aead.Open(sw.ct[:0], nonce[:], sw.ct, wire[:framePrefix])
		frameNonces.Put(nonce)
		if err != nil || len(plain) < frameTimeSize {
			return nil, ErrEnvelope
		}
		sentAt := time.Unix(0, int64(binary.BigEndian.Uint64(plain)))
		*o = Opened{Mode: ModeChannel, Sender: c.pair.peer, Group: c.pair.group, Body: plain[frameTimeSize:], SentAt: sentAt, channelPart: &c.opened}
		if guard != nil && !guard.fresh(sentAt, now) {
			return o, ErrMessageStale
		}
		if !chans.admit(c, sw.frame.seq) {
			replayRejectedTotal.Add(1)
			return o, ErrMessageReplayed
		}
		return o, nil
	}
	round := sw.mode == ModeSlice
	kind := sw.mode
	if round {
		kind = ModeGroup
	}
	// The guard's key: an envelope's is the digest of the wire as received,
	// taken here, before the AEAD overwrites it; a slice's is its nonce.
	var key replayKey
	if guard != nil && !round {
		key = replayKey{replayWire, sha256.Sum256(wire)}
	}
	cek, err := own.UnwrapFrom(sw.eph, sw.wrap, sw.gcmNonce)
	if err != nil {
		return nil, ErrNotRecipient
	}
	// The wrap's tag verified under this peer's key: the ciphertext under
	// it is damaged.
	block, err := keys.AEADOpenInPlace(cek[:], sw.gcmNonce, sw.ct)
	if err != nil {
		return nil, ErrEnvelope
	}
	h, body, ok := parseHeader(block)
	if !ok || h.kind != kind {
		return nil, ErrEnvelope
	}
	if digest := sha256.Sum256(body); !keys.ConstantTimeEqual(digest[:], h.digest) {
		return nil, ErrBodyDigest
	}
	switch sw.mode {
	case ModeFull:
		// The signed To must name this peer's key: a block signed for
		// another recipient and re-encrypted to this one is refused, and so
		// is one that names none.
		ownFP, err := own.Public().Fingerprint()
		if err != nil {
			return nil, err
		}
		if !keys.ConstantTimeEqual(h.to, ownFP[:]) {
			return nil, ErrNotRecipient
		}
	case ModeSlice:
		// Recompute the tree root from this slice's own materials. A
		// header without a SliceRoot cannot authorize any slice.
		root, ok := verifySliceProof(&sw.slice)
		if !ok || !keys.ConstantTimeEqual(root[:], h.root) {
			return nil, ErrRoundBinding
		}
	}
	if len(h.sig) == 0 {
		// Every header is signed: one without a signature is no weaker
		// delivery, whatever its form.
		return nil, ErrNoSignature
	}
	*o = Opened{
		Mode:   sw.mode,
		Sender: h.sender,
		Group:  h.group,
		Body:   body,
		SentAt: time.Unix(0, h.at),
		header: block[:len(block)-len(body)],
		sig:    h.sig,

		channelPart: &noChannelPart,
	}
	if round {
		o.Nonce = h.nonce
	} else if h.channel != nil || h.resends != nil {
		o.channelPart = &channelPart{}
		if h.channel != nil {
			o.hs = &handshake{id: channelID(h.channel), share: h.share}
		}
		if h.resends != nil {
			ref, _, _ := parseFrame(h.resends)
			o.resends = &ref
		}
	}
	if round && claimed != nil && o.Group != *claimed {
		// A round's group label is a remote claim (the relay push or the
		// propagate fan-out carries it), not the receiver's own pipe
		// registration: a two-group insider must not get a round sealed
		// for group Y surfaced to the application as group X traffic.
		return o, fmt.Errorf("%w: signed %s, claimed %s", ErrRoundGroup, o.Group, *claimed)
	}
	if guard != nil {
		if round {
			// Every slice of a round carries the one signed header, and the
			// signed single-use nonce names the round whatever bytes carry
			// it: the same bytes again, or a relay's re-cut. A digest would
			// add nothing. (A member's re-seal behind another's leaf never
			// gets here: the leaf's wrap is bound to the nonce it was sealed
			// under.)
			key = roundKey(o.Sender, o.Nonce)
		}
		if err := guard.admit(key, o.SentAt, now); err != nil {
			return o, err
		}
	}
	return o, nil
}

// openCopy adapts openWire to the exported entry points' contract: the
// caller's wire is left as it was, no Opened comes beside an error, and —
// their callers being no node — a guard judges freshness by the wall.
func openCopy(own *keys.KeyPair, wire []byte, accept wireForms, guard *ReplayGuard) (*Opened, error) {
	o, err := openWire(new(Opened), own, bytes.Clone(wire), accept, nil, guard, nil, time.Now())
	if err != nil {
		return nil, err
	}
	return o, nil
}
