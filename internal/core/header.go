package core

import (
	"encoding/binary"
	"unsafe"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
)

// The signed header every message form but a channel's carries: the
// envelope's, the round's (one for the whole round, inside its shared
// ciphertext) and the offer's, which is an envelope's. It is the first
// thing in a sealed block and marks its own end, so a block is header ‖
// body. This file is the only code that knows the layout:
//
//	kind        u8: the mode the header was sealed under (a round's is ModeGroup)
//	sender      u16 length ‖ bytes
//	group       u16 length ‖ bytes
//	time        i64: the sender's clock, in nanoseconds since the Unix epoch
//	digest      32: SHA-256 of the body behind the header
//	flags       u8: which of the optional fields below follow, in this order
//	  To        32: the fingerprint of the key a ModeFull envelope is sealed to
//	  round     16-byte round nonce ‖ 32-byte slice tree root
//	  offer     16-byte channel ID ‖ 32-byte X25519 share
//	  resends   24: channel ID ‖ u64 sequence number of a refused frame
//	signature   u16 length ‖ bytes; the codec carries an empty one, and the
//	            open path refuses it (ErrNoSignature)
//
// The signature covers headerLabel followed by every byte in front of its
// length: a sender signs what it wrote and a recipient verifies what it
// read, the kind included, with no canonical form in between.

const (
	flagTo = 1 << iota
	flagRound
	flagOffer
	flagResends
)

// headerLabel separates a header signature from every other signature
// an identity key makes.
const headerLabel = "jxta-overlay/message-header/v1"

// signedStack is room for what a signature covers in a header of short
// names, so that signing and verifying it take no allocation.
const signedStack = 512

// header is one header's fields. The byte fields are nil when absent, and
// of their fixed sizes when present; a parsed header's fields are views of
// the bytes it was parsed from.
type header struct {
	kind           Mode
	sender         keys.PeerID
	group          string
	at             int64
	digest         []byte
	to             []byte
	nonce, root    []byte
	channel, share []byte
	resends        []byte
	sig            []byte
}

// headerField is one of a header's optional fields: where it lies in the
// header, the flag that names it, and its size.
type headerField struct {
	v    *[]byte
	flag byte
	size int
}

// optional lists h's optional fields in wire order.
func (h *header) optional() [6]headerField {
	return [...]headerField{{&h.to, flagTo, 32}, {&h.nonce, flagRound, roundNonceSize}, {&h.root, flagRound, 32},
		{&h.channel, flagOffer, channelIDSize}, {&h.share, flagOffer, keys.ShareSize}, {&h.resends, flagResends, framePrefix - 1}}
}

// headerSize is what appendHeader writes for h, signed by signer or, when
// signer is nil, carrying h.sig.
func headerSize(h *header, signer *keys.KeyPair) int {
	n := 1 + 2 + len(h.sender) + 2 + len(h.group) + 8 + len(h.digest) + 1 + 2
	for _, f := range h.optional() {
		n += len(*f.v)
	}
	if signer != nil {
		return n + (signer.Bits()+7)/8
	}
	return n + len(h.sig)
}

// appendHeader appends h, signed by signer when it is set (the signature
// is left in h.sig) and otherwise carrying h.sig as it is.
func appendHeader(dst []byte, h *header, signer *keys.KeyPair) ([]byte, error) {
	if len(h.sender) > proto.MaxField || len(h.group) > proto.MaxField {
		return nil, proto.ErrFieldTooLong
	}
	start := len(dst)
	dst = proto.AppendField(proto.AppendField(append(dst, byte(h.kind)), h.sender), h.group)
	dst = append(binary.BigEndian.AppendUint64(dst, uint64(h.at)), h.digest...)
	flags := len(dst)
	dst = append(dst, 0)
	for _, f := range h.optional() {
		if *f.v != nil {
			dst[flags] |= f.flag
			dst = append(dst, *f.v...)
		}
	}
	if signer != nil {
		var buf [signedStack]byte
		var err error
		if h.sig, err = signer.Sign(append(append(buf[:0], headerLabel...), dst[start:]...)); err != nil {
			return nil, err
		}
	}
	return proto.AppendField(dst, h.sig), nil
}

// parseHeader reads the header block starts with, and returns it and the
// body behind it. Every field is a view of block.
func parseHeader(block []byte) (h header, body []byte, ok bool) {
	in := proto.NewReader(block)
	h.kind = Mode(in.Uint(1))
	sender, group := in.Field(), in.Field()
	h.sender = keys.PeerID(unsafe.String(unsafe.SliceData(sender), len(sender)))
	h.group = unsafe.String(unsafe.SliceData(group), len(group))
	h.at, h.digest = int64(in.Uint(8)), in.Bytes(32)
	flags := byte(in.Uint(1))
	if flags&^(flagTo|flagRound|flagOffer|flagResends) != 0 {
		return h, nil, false
	}
	for _, f := range h.optional() {
		if flags&f.flag != 0 {
			*f.v = in.Bytes(f.size)
		}
	}
	h.sig = in.Field()
	return h, in.Rest(), in.Done()
}

// verifyHeader checks the signature hdr ends in, sig, under key.
func verifyHeader(key *keys.PublicKey, hdr, sig []byte) error {
	var buf [signedStack]byte
	return key.Verify(append(append(buf[:0], headerLabel...), hdr[:len(hdr)-2-len(sig)]...), sig)
}
