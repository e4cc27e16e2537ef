package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
)

// The three wire forms that carry a message to a recipient, in the column
// order of the pipeline table.
var pipelineForms = [3]Mode{ModeFull, ModeSlice, ModeChannel}

func isRound(m Mode) bool { return m == ModeSlice }

// openAs is the exported entry point that accepts m — for a frame, which
// has none, openWire under the exported entry points' contract.
func openAs(m Mode, own *keys.KeyPair, wire []byte) (*Opened, error) {
	switch m {
	case ModeSlice:
		return OpenSlice(own, wire, nil)
	case ModeChannel:
		o, err := openWire(new(Opened), own, bytes.Clone(wire), formChannel, nil, nil, tableChannels(), time.Now())
		if err != nil {
			return nil, err
		}
		return o, nil
	default:
		return Open(own, wire)
	}
}

// forgeWire seals body to recvKP (and, for a slice, evilKP beside it so
// it carries a non-empty proof) in form m, the way Seal and
// SealGroupDetached do, except that the finished header — signed, then
// parsed back — passes through edit (nil = unchanged), which returns the
// header bytes to pack: so a test can hand the pipeline a header no honest
// sender would produce behind a wire that is otherwise sound: right wraps,
// right bindings, authentic ciphertext. A frame is the table channel's
// frame 1, and has no header to edit (forgeFrame builds the defects a
// frame can have).
func forgeWire(t *testing.T, m Mode, body []byte, edit func(h *header) []byte) []byte {
	t.Helper()
	if m == ModeChannel {
		if edit != nil {
			t.Fatal("a frame has no header to edit")
		}
		return sealFrame(nil, tableAEAD(), frameRef{tableChannelID, 1}, body, time.Now())
	}
	digest := sha256.Sum256(body)
	h := header{kind: m, sender: "urn:jxta:sender", group: "g", at: time.Now().UnixNano(), digest: digest[:]}
	pack := func(signer *keys.KeyPair) []byte {
		hdr, err := appendHeader(nil, &h, signer)
		if err != nil {
			t.Fatal(err)
		}
		if edit != nil {
			parsed, _, ok := parseHeader(hdr)
			if !ok {
				t.Fatal("an honest header does not parse")
			}
			hdr = edit(&parsed)
		}
		return append(hdr, body...)
	}
	if !isRound(m) {
		fp, err := recvKP.Public().Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		h.to = fp[:]
		env, err := recvKP.Public().Encrypt(pack(senderKP))
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte{byte(m)}, env.Bytes()...)
	}
	cek, err := keys.NewContentKey()
	if err != nil {
		t.Fatal(err)
	}
	eph, err := keys.NewAgreementKey()
	if err != nil {
		t.Fatal(err)
	}
	d := &DetachedRound{eph: [keys.ShareSize]byte(eph.Share())}
	if d.gcmNonce, err = keys.RandomBytes(keys.AEADNonceSize); err != nil {
		t.Fatal(err)
	}
	for _, kp := range []*keys.KeyPair{recvKP, evilKP} {
		fp, err := kp.Public().Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if d.entries, err = eph.WrapTo(append(d.entries, fp[:]...), cek, kp.Public(), d.gcmNonce); err != nil {
			t.Fatal(err)
		}
	}
	d.levels = d.sliceLevels()
	root := d.levels[len(d.levels)-1][0]
	h.kind, h.nonce, h.root = ModeGroup, bytes.Repeat([]byte{7}, roundNonceSize), root[:]
	if d.ct, err = keys.AEADSealInPlace(cek, d.gcmNonce, pack(senderKP), 0); err != nil {
		t.Fatal(err)
	}
	return d.Slice(0)
}

// reencode writes h back, keeping the signature it carries: a header
// whose fields a test changed after it was signed.
func reencode(h *header) []byte {
	b, err := appendHeader(nil, h, nil)
	if err != nil {
		panic(err)
	}
	return b
}

// forgeFrame seals plain — whatever the test wants behind the tag, a
// sent-at and a body or not — as frame seq of channel id under the table
// channel's key, byte by byte from the documented layout.
func forgeFrame(id channelID, seq uint64, plain []byte) []byte {
	wire := append([]byte{byte(ModeChannel)}, id[:]...)
	wire = binary.BigEndian.AppendUint64(wire, seq)
	var nonce [keys.AEADNonceSize]byte
	binary.BigEndian.PutUint64(nonce[keys.AEADNonceSize-8:], seq)
	return tableAEAD().Seal(wire, nonce[:], plain, wire[:1+16+8])
}

// framePlain is what an honest frame encrypts: sent-at, then the body.
func framePlain(sentAt time.Time, body []byte) []byte {
	return append(binary.BigEndian.AppendUint64(nil, uint64(sentAt.UnixNano())), body...)
}

// prefixBoundaries walks wire's layout and returns every offset at
// which a count- or length-prefixed section starts or ends.
func prefixBoundaries(wire []byte) []int {
	off := 1
	var out []int
	u32 := func() int {
		v := int(binary.BigEndian.Uint32(wire[off:]))
		out = append(out, off, off+4)
		off += 4
		return v
	}
	skip := func(n int) { off += n; out = append(out, off) }
	switch Mode(wire[0]) {
	case ModeFull:
		skip(keys.ShareSize)     // the sender's share
		skip(keys.WrapSize)      // wrap
		skip(keys.AEADNonceSize) // GCM nonce; the ciphertext runs to the end
	case ModeChannel:
		skip(channelIDSize)
		skip(8)             // sequence number
		skip(frameTimeSize) // the sent-at, encrypted; the body runs to the tag
		skip(len(wire) - keys.AEADOverhead - off)
	case ModeRefusal:
		skip(channelIDSize)
		skip(8) // sequence number
	case ModeAccept:
		skip(channelIDSize)
		skip(keys.ShareSize) // the responder's ephemeral share
		skip(acceptTagSize)
	case ModeSlice:
		u32()                // recipient count
		skip(4)              // leaf index
		skip(keys.ShareSize) // ephemeral share
		skip(32)             // fingerprint
		skip(keys.WrapSize)  // wrap
		proofLen := int(wire[off])
		skip(1)
		skip(32 * proofLen)
		skip(keys.AEADNonceSize) // GCM nonce; the ciphertext runs to the end
	}
	return out
}

// TestOpenPipelineTable pins the one open path as a table: wire form ×
// defect → error identity (nil = opens). Every cell goes through the
// exported entry point that accepts the form, i.e. through openWire.
func TestOpenPipelineTable(t *testing.T) {
	body := []byte("pipeline table body")
	valid := func(t *testing.T, m Mode) []byte { return forgeWire(t, m, body, nil) }
	edited := func(edit func(h *header) []byte) func(*testing.T, Mode) []byte {
		return func(t *testing.T, m Mode) []byte { return forgeWire(t, m, body, edit) }
	}
	set := func(f func(h *header)) func(*testing.T, Mode) []byte {
		return edited(func(h *header) []byte { f(h); return reencode(h) })
	}
	flip := func(at func(wire []byte) int) func(*testing.T, Mode) []byte {
		return func(t *testing.T, m Mode) []byte {
			wire := valid(t, m)
			wire[at(wire)] ^= 0x01
			return wire
		}
	}
	another := keys.SHA256([]byte("another"))
	// n/a marks a cell the defect cannot be built for. A frame is a counter,
	// a ciphertext and a tag, so the rows that edit a header have no cell in
	// its column; each says which field it is that a frame does not have.
	na := errors.New("n/a")
	var (
		noHeader = na // no header behind the tag: no kind, no layout, no field to ignore
		noDigest = na // no digest: the tag covers the body (flipped ciphertext byte, above, is the row)
		noSig    = na // no signature to carry, or to refuse
		noTo     = na // names no recipient and no recipient set: the key is derived from both ends
		noFields = na // offers ride signed envelopes only
	)

	for _, tc := range []struct {
		name string
		wire func(t *testing.T, m Mode) []byte
		key  *keys.KeyPair // recvKP unless set
		want [3]error      // Full, Slice, Channel
	}{
		{name: "valid", wire: valid},
		{
			// The wrap unwrapped under this peer's key: what fails is the
			// ciphertext.
			name: "flipped ciphertext byte",
			wire: flip(func(w []byte) int { return len(w) - 1 }),
			want: [3]error{ErrEnvelope, ErrEnvelope, ErrEnvelope},
		},
		{
			// A mode byte that names no form — the retired sign-only and
			// encrypt-only ones among them — is refused before anything behind
			// it is read.
			name: "mode byte 'S'",
			wire: func(t *testing.T, m Mode) []byte { w := valid(t, m); w[0] = 'S'; return w },
			want: [3]error{ErrEnvelope, ErrEnvelope, ErrEnvelope},
		},
		{
			name: "mode byte 'E'",
			wire: func(t *testing.T, m Mode) []byte { w := valid(t, m); w[0] = 'E'; return w },
			want: [3]error{ErrEnvelope, ErrEnvelope, ErrEnvelope},
		},
		{
			name: "flipped wrap byte",
			wire: flip(func(w []byte) int {
				if Mode(w[0]) == ModeSlice {
					return 1 + 4 + 4 + keys.ShareSize + 32 + 9
				}
				return 1 + keys.ShareSize + 9
			}),
			want: [3]error{ErrNotRecipient, ErrNotRecipient, na},
		},
		{
			// The sender's share is in every wrap's key derivation and under
			// its tag: another one unwraps nothing.
			name: "flipped ephemeral share byte",
			wire: flip(func(w []byte) int {
				if Mode(w[0]) == ModeSlice {
					return 1 + 4 + 4 + 5
				}
				return 1 + 5
			}),
			want: [3]error{ErrNotRecipient, ErrNotRecipient, na},
		},
		{
			// Every wrap is bound to the AEAD nonce its content is sealed
			// under: under another nonce it unwraps nothing, before the
			// ciphertext is read.
			name: "flipped GCM nonce byte",
			wire: flip(func(w []byte) int {
				if Mode(w[0]) == ModeSlice {
					proof := 1 + 4 + 4 + keys.ShareSize + 32 + keys.WrapSize
					return proof + 1 + 32*int(w[proof]) + 3
				}
				return 1 + keys.ShareSize + keys.WrapSize + 3
			}),
			want: [3]error{ErrNotRecipient, ErrNotRecipient, na},
		},
		{
			name: "body digest mismatch",
			wire: set(func(h *header) { h.digest = another }),
			want: [3]error{ErrBodyDigest, ErrBodyDigest, noDigest},
		},
		{
			name: "kind of no mode",
			wire: set(func(h *header) { h.kind = '?' }),
			want: [3]error{ErrEnvelope, ErrEnvelope, noHeader},
		},
		{
			name: "round header in an envelope, envelope header in a round",
			wire: set(func(h *header) {
				if h.kind == ModeGroup {
					h.kind = ModeFull
				} else {
					h.kind = ModeGroup
				}
			}),
			want: [3]error{ErrEnvelope, ErrEnvelope, noHeader},
		},
		{
			// The kind is signed and compared: a round's header does not
			// open as its slices' wire form, an envelope's not as a frame's.
			name: "kind of another form",
			wire: set(func(h *header) {
				h.kind = map[Mode]Mode{ModeFull: ModeChannel, ModeGroup: ModeSlice}[h.kind]
			}),
			want: [3]error{ErrEnvelope, ErrEnvelope, noHeader},
		},
		{
			name: "flag of no field",
			wire: edited(func(h *header) []byte {
				b := reencode(h)
				b[1+2+len(h.sender)+2+len(h.group)+8+32] |= 0x80
				return b
			}),
			want: [3]error{ErrEnvelope, ErrEnvelope, noHeader},
		},
		{
			// Unsigned, so that only the body follows: a field the flags name
			// runs past the block.
			name: "flags name a field the bytes lack",
			wire: set(func(h *header) { h.sig, h.channel, h.share = nil, []byte{}, []byte{} }),
			want: [3]error{ErrEnvelope, ErrEnvelope, noHeader},
		},
		{
			name: "sender longer than the block",
			wire: edited(func(h *header) []byte {
				b := reencode(h)
				binary.BigEndian.PutUint16(b[1:], 0xffff)
				return b
			}),
			want: [3]error{ErrEnvelope, ErrEnvelope, noHeader},
		},
		{
			name: "signature longer than the block",
			wire: edited(func(h *header) []byte {
				b := reencode(h)
				binary.BigEndian.PutUint16(b[len(b)-2-len(h.sig):], 0xffff)
				return b
			}),
			want: [3]error{ErrEnvelope, ErrEnvelope, noHeader},
		},
		{
			// The header marks its own end: what follows it is body, and
			// the digest does not cover it.
			name: "trailing byte after the signature",
			wire: edited(func(h *header) []byte { return append(reencode(h), 0) }),
			want: [3]error{ErrBodyDigest, ErrBodyDigest, noHeader},
		},
		{
			// Every header is signed, whatever its form: one without a
			// signature is no weaker delivery.
			name: "missing signature",
			wire: set(func(h *header) { h.sig = nil }),
			want: [3]error{ErrNoSignature, ErrNoSignature, noSig},
		},
		{
			// The field is checked later, against the sender's certified key.
			name: "another signature",
			wire: set(func(h *header) { h.sig = []byte("not a signature") }),
			want: [3]error{nil, nil, noSig},
		},
		{
			name: "no round fields", // envelopes carry none and read none
			wire: set(func(h *header) { h.nonce, h.root = nil, nil }),
			want: [3]error{nil, ErrRoundBinding, noTo},
		},
		{
			name: "slice root over another set",
			wire: set(func(h *header) { h.nonce, h.root = bytes.Repeat([]byte{7}, roundNonceSize), another }),
			want: [3]error{nil, ErrRoundBinding, noTo},
		},
		{
			// The binding is checked before any signed field is trusted: a
			// header that fails both reports the binding.
			name: "binding mismatch and no signature",
			wire: set(func(h *header) { h.nonce, h.root, h.sig = bytes.Repeat([]byte{7}, roundNonceSize), another, nil }),
			want: [3]error{ErrNoSignature, ErrRoundBinding, noTo},
		},
		{
			name: "wrong recipient",
			wire: valid,
			key:  senderKP,
			want: [3]error{ErrNotRecipient, ErrNotRecipient, nil},
		},
		{
			name: "slice re-addressed to another member's fingerprint",
			wire: func(t *testing.T, m Mode) []byte {
				wire := valid(t, m)
				if m == ModeSlice {
					fp, _ := evilKP.Public().Fingerprint()
					copy(wire[1+4+4+keys.ShareSize:], fp[:])
				}
				return wire
			},
			want: [3]error{na, ErrNotRecipient, na},
		},
		{
			// An envelope must name its recipient; absent is refused, like any
			// another name.
			name: "missing To",
			wire: set(func(h *header) { h.to = nil }),
			want: [3]error{ErrNotRecipient, nil, noTo},
		},
		{
			name: "To names another key", // only an envelope's To is read
			wire: set(func(h *header) { h.to = another }),
			want: [3]error{ErrNotRecipient, nil, noTo},
		},
		{
			// The recipient is bound before a signed field is trusted.
			name: "To names another key and no signature",
			wire: set(func(h *header) { h.to, h.sig = another, nil }),
			want: [3]error{ErrNotRecipient, ErrNoSignature, noTo},
		},
		{
			// A field of fixed size one byte short: what follows it is read
			// one byte early, and the signature's length runs past the block.
			name: "To of the wrong length",
			wire: set(func(h *header) { h.to = another[:31] }),
			want: [3]error{ErrEnvelope, ErrEnvelope, noTo},
		},
		{
			name: "offer", // rounds carry no handshake and read none
			wire: set(func(h *header) { h.channel, h.share = tableChannelID[:], another }),
			want: [3]error{nil, nil, noFields},
		},
		{
			name: "offer share of the wrong length",
			wire: set(func(h *header) { h.channel, h.share = tableChannelID[:], another[:31] }),
			want: [3]error{ErrEnvelope, ErrEnvelope, noFields},
		},
		{
			name: "frame sent again",
			wire: set(func(h *header) { h.resends = appendFrameRef(nil, ModeRefusal, frameRef{tableChannelID, 7})[1:] }),
			want: [3]error{nil, nil, noFields},
		},
		{
			name: "frame sent again, a reference of the wrong length",
			wire: set(func(h *header) { h.resends = make([]byte, framePrefix-2) }),
			want: [3]error{ErrEnvelope, ErrEnvelope, noFields},
		},
	} {
		for i, m := range pipelineForms {
			if tc.want[i] == na {
				continue
			}
			key := tc.key
			if key == nil {
				key = recvKP
			}
			o, err := openAs(m, key, tc.wire(t, m))
			if !errors.Is(err, tc.want[i]) { // errors.Is(err, nil) holds only for a nil err
				t.Errorf("%s / %s: err = %v, want %v", tc.name, m, err, tc.want[i])
				continue
			}
			if (o == nil) == (err == nil) {
				t.Errorf("%s / %s: returned (%v, %v): exactly one must be set", tc.name, m, o, err)
			}
			if err == nil && (o.Mode != m || !bytes.Equal(o.Body, body) || (o.Nonce != nil) != isRound(m) || (o.Header() != nil) != (m != ModeChannel)) {
				t.Errorf("%s / %s: opened = %+v", tc.name, m, o)
			}
		}
	}

	// The frame's own rows: what can be wrong with a counter, a ciphertext
	// and a tag. Each row delivers its wires in order to ONE table holding
	// the table channel and, under the same key, a second channel whose ID
	// differs from it in one bit — so that a flipped ID bit reaches a tag
	// check rather than "no such channel" — behind a guard with the default
	// two-minute window, at the time now.
	now := time.Now()
	other := tableChannelID
	other[3] ^= 0x10
	honest := func(seq uint64) []byte { return forgeFrame(tableChannelID, seq, framePlain(now, body)) }
	flipped := func(at int) []byte {
		wire := honest(1)
		wire[(at+len(wire))%len(wire)] ^= 0x10
		return wire
	}
	for _, tc := range []struct {
		name  string
		wires [][]byte
		want  []error       // per wire; a refusal that is the channel peer's (stale, replayed) comes with the Opened
		fresh time.Duration // set: the wire, refused, opens at now+fresh — the refusal spent no sequence number
	}{
		{name: "honest", wires: [][]byte{honest(1)}, want: []error{nil}},
		{name: "empty body", wires: [][]byte{forgeFrame(tableChannelID, 1, framePlain(now, nil))}, want: []error{nil}},
		{name: "no plaintext", wires: [][]byte{forgeFrame(tableChannelID, 1, nil)}, want: []error{ErrEnvelope}},
		{name: "plaintext of 7 bytes", wires: [][]byte{forgeFrame(tableChannelID, 1, framePlain(now, nil)[:7])}, want: []error{ErrEnvelope}},
		{name: "sent 3 min ago", wires: [][]byte{forgeFrame(tableChannelID, 1, framePlain(now.Add(-3*time.Minute), body))}, want: []error{ErrMessageStale}, fresh: -3 * time.Minute},
		{name: "sent 3 min from now", wires: [][]byte{forgeFrame(tableChannelID, 1, framePlain(now.Add(3*time.Minute), body))}, want: []error{ErrMessageStale}, fresh: 3 * time.Minute},
		{name: "sent-at of all ones", wires: [][]byte{forgeFrame(tableChannelID, 1, append(bytes.Repeat([]byte{0xff}, 8), body...))}, want: []error{ErrMessageStale}},
		{name: "flipped channel ID bit", wires: [][]byte{flipped(1 + 3)}, want: []error{ErrEnvelope}},
		{name: "flipped sequence number bit", wires: [][]byte{flipped(1 + channelIDSize + 7)}, want: []error{ErrEnvelope}},
		{name: "flipped sent-at bit", wires: [][]byte{flipped(framePrefix)}, want: []error{ErrEnvelope}},
		{name: "flipped ciphertext bit", wires: [][]byte{flipped(framePrefix + frameTimeSize + 2)}, want: []error{ErrEnvelope}},
		{name: "flipped tag bit", wires: [][]byte{flipped(-1)}, want: []error{ErrEnvelope}},
		{name: "a byte behind the tag", wires: [][]byte{append(honest(1), 0)}, want: []error{ErrEnvelope}},
		{name: "the tag's last byte missing", wires: [][]byte{honest(1)[:len(honest(1))-1]}, want: []error{ErrEnvelope}},
		{name: "sealed for the other channel's ID", wires: [][]byte{forgeFrame(other, 1, framePlain(now, body))}, want: []error{nil}},
		{name: "the same number twice", wires: [][]byte{honest(4), honest(4)}, want: []error{nil, ErrMessageReplayed}},
		{name: "a number below the window", wires: [][]byte{honest(seqWindow + 9), honest(9)}, want: []error{nil, ErrMessageReplayed}},
		{name: "number zero", wires: [][]byte{honest(0)}, want: []error{ErrMessageReplayed}},
		{name: "a number beyond the budget", wires: [][]byte{honest(channelBudget + 1)}, want: []error{ErrMessageReplayed}},
	} {
		chans := tableChannels()
		chans.install(&inChannel{id: other, pair: pairKey{"urn:jxta:other", "h"}, aead: tableAEAD()}, now.Add(time.Hour), now)
		guard := NewReplayGuard(0, 0)
		for i, wire := range tc.wires {
			o, err := openWire(new(Opened), nil, bytes.Clone(wire), formChannel, nil, guard, chans, now)
			if !errors.Is(err, tc.want[i]) {
				t.Errorf("frame: %s, wire %d: err = %v, want %v", tc.name, i, err, tc.want[i])
				continue
			}
			// Refused by the tag, nobody's; refused after it, the channel's peer's.
			if peers := errors.Is(err, ErrMessageStale) || errors.Is(err, ErrMessageReplayed); (o != nil) != (err == nil || peers) {
				t.Errorf("frame: %s, wire %d: returned (%v, %v)", tc.name, i, o, err)
				continue
			}
			if o == nil {
				continue
			}
			wantPair := pairKey{"urn:jxta:sender", "g"}
			if wire[1+3] == other[3] {
				wantPair = pairKey{"urn:jxta:other", "h"}
			}
			if o.Mode != ModeChannel || o.via == nil || (pairKey{o.Sender, o.Group}) != wantPair || !bytes.Equal(o.Body, body[:len(wire)-framePrefix-frameTimeSize-keys.AEADOverhead]) {
				t.Errorf("frame: %s, wire %d: opened = %+v, want a frame from %v", tc.name, i, o, wantPair)
			}
			if err == nil && !o.SentAt.Equal(now) {
				t.Errorf("frame: %s, wire %d: SentAt = %v, want %v", tc.name, i, o.SentAt, now)
			}
		}
		if guard.Len() != 0 {
			t.Errorf("frame: %s: %d guard entries, want none: a frame never enters the guard's table", tc.name, guard.Len())
		}
		if tc.fresh != 0 {
			if _, err := openWire(new(Opened), nil, bytes.Clone(tc.wires[0]), formChannel, nil, guard, chans, now.Add(tc.fresh)); err != nil {
				t.Errorf("frame: %s: the stale refusal spent the frame's sequence number: %v", tc.name, err)
			}
		}
	}
	// Without a guard no wire's time is judged, a frame's no more than an
	// envelope's.
	if _, err := openWire(new(Opened), nil, forgeFrame(tableChannelID, 1, framePlain(now.Add(-time.Hour), body)), formChannel, nil, nil, tableChannels(), now); err != nil {
		t.Errorf("an hour-old frame on a surface without a guard: %v", err)
	}
	// A frame of a channel the table does not hold, and a table that is not
	// there at all.
	var unknown *unknownChannelError
	wire := valid(t, ModeChannel)
	wire[1] ^= 0x01
	if _, err := openAs(ModeChannel, recvKP, wire); !errors.As(err, &unknown) || unknown.frame.seq != 1 {
		t.Errorf("frame of an unknown channel: err = %v, want an unknownChannelError naming frame 1", err)
	}
	if _, err := openWire(new(Opened), recvKP, valid(t, ModeChannel), formChannel, nil, nil, nil, time.Now()); !errors.Is(err, ErrEnvelope) {
		t.Errorf("frame on a surface without channels: err = %v, want ErrEnvelope", err)
	}

	// The accept's own rows. An accept opens to what it says, unsigned; what
	// it may do is decided by the offer it names. Each row answers ONE
	// pending offer (pendingOffer: recvKP's peer to senderKP's, group "g"),
	// delivers its wires in order from the peer and in the group it names,
	// and hands each one that opened to the table.
	outcomes := [...]string{acceptEstablished: "established", acceptIgnored: "ignored", acceptInvalid: "invalid"}
	for _, tc := range []struct {
		name  string
		wires func(t *testing.T, honest []byte, ends channelEnds) [][]byte
		from  pairKey       // offerPair unless set
		at    time.Duration // after now
		open  error         // per wire, from openWire
		want  []int         // per wire, from the table
	}{
		{name: "honest", want: []int{acceptEstablished}},
		{
			name:  "the same accept twice",
			wires: func(_ *testing.T, honest []byte, _ channelEnds) [][]byte { return [][]byte{honest, honest} },
			want:  []int{acceptEstablished, acceptIgnored},
		},
		{name: "flipped channel ID bit", wires: flipAccept(1 + 5), want: []int{acceptIgnored}},
		{name: "flipped share bit", wires: flipAccept(1 + channelIDSize + 9), want: []int{acceptInvalid}},
		{name: "flipped tag bit", wires: flipAccept(acceptSize - 1), want: []int{acceptInvalid}},
		{
			name: "share of small order",
			wires: func(_ *testing.T, honest []byte, _ channelEnds) [][]byte {
				w := bytes.Clone(honest)
				clear(w[1+channelIDSize : acceptSize-acceptTagSize])
				return [][]byte{w}
			},
			want: []int{acceptInvalid},
		},
		{
			// Another answer to the same offer: its share and its tag belong
			// together, and to nothing else.
			name: "the tag of another answer to the offer",
			wires: func(t *testing.T, honest []byte, ends channelEnds) [][]byte {
				_, other, err := answer(senderKP, channelID(honest[1:]), ends)
				if err != nil {
					t.Fatal(err)
				}
				w := bytes.Clone(honest)
				copy(w[acceptSize-acceptTagSize:], other[acceptSize-acceptTagSize:])
				return [][]byte{w, other[:]}
			},
			want: []int{acceptInvalid, acceptEstablished},
		},
		{
			// A third peer holds no X25519 with the offered peer's certified
			// key: its own key in the responder's place derives another tag.
			name: "answered under another peer's agreement key",
			wires: func(t *testing.T, honest []byte, ends channelEnds) [][]byte {
				_, forged, err := answer(evilKP, channelID(honest[1:]), ends)
				if err != nil {
					t.Fatal(err)
				}
				return [][]byte{forged[:], honest}
			},
			want: []int{acceptInvalid, acceptEstablished},
		},
		{name: "from another peer", from: pairKey{"urn:jxta:other", "g"}, want: []int{acceptIgnored}},
		{name: "in another group", from: pairKey{"urn:jxta:sender", "h"}, want: []int{acceptIgnored}},
		{name: "after the offer's lifetime", at: offerLifetime + time.Second, want: []int{acceptIgnored}},
		{
			name:  "a byte short",
			wires: func(_ *testing.T, honest []byte, _ channelEnds) [][]byte { return [][]byte{honest[:acceptSize-1]} },
			open:  ErrEnvelope,
		},
		{
			name: "a byte behind",
			wires: func(_ *testing.T, honest []byte, _ channelEnds) [][]byte {
				return [][]byte{append(bytes.Clone(honest), 0)}
			},
			open: ErrEnvelope,
		},
	} {
		chans, hs, ends := pendingOffer(t, now)
		respAEAD, accept, err := answer(senderKP, hs.id, ends)
		if err != nil {
			t.Fatal(err)
		}
		honest := accept[:]
		wires := [][]byte{honest}
		if tc.wires != nil {
			wires = tc.wires(t, honest, ends)
		}
		from := offerPair
		if tc.from != (pairKey{}) {
			from = tc.from
		}
		guard := NewReplayGuard(0, 0)
		for i, wire := range wires {
			o, err := openWire(new(Opened), nil, bytes.Clone(wire), formChannel, nil, guard, chans, now.Add(tc.at))
			if !errors.Is(err, tc.open) || (o == nil) == (err == nil) {
				t.Errorf("accept: %s, wire %d: opened to (%+v, %v), want %v", tc.name, i, o, err, tc.open)
				continue
			}
			if err != nil {
				continue
			}
			if o.Mode != ModeAccept || o.accept.id() != channelID(wire[1:]) || o.Body != nil || o.Sender != "" {
				t.Errorf("accept: %s, wire %d: opened = %+v", tc.name, i, o)
			}
			if got := chans.accepted(from, o.accept, now.Add(tc.at)); got != tc.want[i] {
				t.Errorf("accept: %s, wire %d: %s, want %s", tc.name, i, outcomes[got], outcomes[tc.want[i]])
			}
		}
		if guard.Len() != 0 {
			t.Errorf("accept: %s: %d guard entries, want none: an accept never enters the guard's table", tc.name, guard.Len())
		}
		// Both ends hold one key exactly when the table said so.
		up := false
		for _, w := range tc.want {
			up = up || w == acceptEstablished
		}
		frame, aead, _, ok := chans.claimFrame(offerPair, "", now)
		if ok != up {
			t.Errorf("accept: %s: channel established = %v, want %v", tc.name, ok, up)
		}
		if ok && tc.wires == nil {
			// The honest row: what the initiator seals, the responder opens.
			in := &channelTable{}
			in.install(&inChannel{id: hs.id, pair: pairKey{"urn:jxta:recv", "g"}, aead: respAEAD}, now.Add(time.Hour), now)
			if o, err := openWire(new(Opened), nil, sealFrame(nil, aead, frame, body, now), formChannel, nil, nil, in, now); err != nil || !bytes.Equal(o.Body, body) {
				t.Errorf("accept: %s: the initiator's first frame opened at the responder to (%+v, %v)", tc.name, o, err)
			}
		}
	}

	// No key at all: only the form no private key opens does — the one
	// under a channel's key.
	for _, m := range pipelineForms {
		want := ErrNotRecipient
		if m == ModeChannel {
			want = nil
		}
		if _, err := openAs(m, nil, valid(t, m)); !errors.Is(err, want) {
			t.Errorf("nil key / %s: err = %v, want %v", m, err, want)
		}
	}

	// A form offered to an entry point that does not accept it is
	// malformed there, whatever else is right about it.
	for _, m := range pipelineForms {
		wire := valid(t, m)
		for _, entry := range pipelineForms { // Open, OpenSlice, and a frame's
			accepts := entry == m
			_, err := openAs(entry, recvKP, wire)
			if accepts && err != nil {
				t.Errorf("%s at its own entry point: %v", m, err)
			}
			if !accepts && !errors.Is(err, ErrEnvelope) {
				t.Errorf("%s offered to the %s entry point: err = %v, want ErrEnvelope", m, entry, err)
			}
		}
	}
	if _, err := Open(recvKP, []byte{'?', 1, 2, 3}); !errors.Is(err, ErrEnvelope) {
		t.Errorf("unknown mode byte: err = %v, want ErrEnvelope", err)
	}
}

// TestOpenPipelineTruncation cuts a valid wire of each form — and the two
// wires of a session channel that carry no message, an accept and a
// refusal — at (and one byte either side of) every count/length-prefix
// boundary. Every cut is ErrEnvelope: every form's block is under a tag.
func TestOpenPipelineTruncation(t *testing.T) {
	type wireCase struct {
		name string
		wire []byte
		open func(wire []byte) (*Opened, error)
	}
	var cases []wireCase
	for _, m := range pipelineForms {
		m := m
		cases = append(cases, wireCase{m.String(), forgeWire(t, m, []byte("truncate me"), nil),
			func(wire []byte) (*Opened, error) { return openAs(m, recvKP, wire) }})
	}
	_, accept, refusal := TableChannelWires(nil)
	openChannelForm := func(wire []byte) (*Opened, error) { return openAs(ModeChannel, recvKP, wire) }
	cases = append(cases,
		wireCase{"accept", accept, openChannelForm},
		wireCase{"refusal", refusal, openChannelForm})

	for _, tc := range cases {
		wire := tc.wire
		if o, err := tc.open(wire); err != nil || o.Mode != Mode(wire[0]) {
			t.Fatalf("%s uncut: (%v, %v)", tc.name, o, err)
		}
		bounds := prefixBoundaries(wire)
		cuts := map[int]bool{0: true, 1: true, len(wire) - 1: true}
		for _, b := range bounds {
			for _, c := range []int{b - 1, b, b + 1} {
				if c >= 0 && c < len(wire) {
					cuts[c] = true
				}
			}
		}
		if len(cuts) < 6 {
			t.Fatalf("%s: only %d cut points from boundaries %v", tc.name, len(cuts), bounds)
		}
		for cut := range cuts {
			if o, err := tc.open(wire[:cut]); !errors.Is(err, ErrEnvelope) || o != nil {
				t.Errorf("%s cut at %d/%d: (%v, %v), want ErrEnvelope", tc.name, cut, len(wire), o, err)
			}
		}
		// The forms whose last section is length-prefixed, of fixed length,
		// or a ciphertext running to the end under one tag, end where it ends.
		if m := Mode(wire[0]); m != ModeSlice {
			if o, err := tc.open(append(bytes.Clone(wire), 0)); !errors.Is(err, ErrEnvelope) || o != nil {
				t.Errorf("%s with a byte behind it: (%v, %v), want ErrEnvelope", tc.name, o, err)
			}
		}
	}
	// An accept opens to what it says, and is the table's to check.
	o, err := openChannelForm(accept)
	if err != nil || o.accept == nil || o.accept.id() != tableChannelID || !bytes.Equal(o.accept.share(), accept[1+channelIDSize:acceptSize-acceptTagSize]) || o.Body != nil {
		t.Fatalf("accept opened to (%+v, %v)", o, err)
	}
	if o, err := openChannelForm(refusal); err != nil || o.refusal != (frameRef{tableChannelID, 7}) {
		t.Fatalf("refusal opened to (%+v, %v)", o, err)
	}
}

// TestOpenRoundWrongLabelDoesNotBurnNonce: the claimed-group check runs
// before the guard, so a round delivered under the wrong group label is
// refused without spending its single-use nonce — the same round then
// opens under the right label, once.
func TestOpenRoundWrongLabelDoesNotBurnNonce(t *testing.T) {
	wire := forgeWire(t, ModeSlice, []byte("labelled"), nil)
	guard := NewReplayGuard(time.Minute, 16)
	wrong, right := "art", "g"
	// openWire consumes what it is handed; every delivery is its own copy
	// of the bytes, as every frame the fabric delivers is.
	o, err := openWire(new(Opened), recvKP, bytes.Clone(wire), formSlice, &wrong, guard, nil, time.Now())
	if !errors.Is(err, ErrRoundGroup) {
		t.Fatalf("under the wrong label: err = %v, want ErrRoundGroup", err)
	}
	if o == nil || o.Sender != "urn:jxta:sender" {
		t.Fatalf("wrong-label refusal does not name the signed sender: %+v", o)
	}
	if guard.Len() != 0 {
		t.Fatalf("wrong-label delivery left %d guard entries, want 0", guard.Len())
	}
	if _, err := openWire(new(Opened), recvKP, bytes.Clone(wire), formSlice, &right, guard, nil, time.Now()); err != nil {
		t.Fatalf("under the right label after a wrong one: %v", err)
	}
	if guard.Len() != 1 {
		t.Fatalf("admitted slice left %d guard entries, want 1 (its nonce)", guard.Len())
	}
	o, err = openWire(new(Opened), recvKP, bytes.Clone(wire), formSlice, &right, guard, nil, time.Now())
	if !errors.Is(err, ErrMessageReplayed) || o == nil {
		t.Fatalf("delivered twice under the right label: (%v, %v), want the Opened and ErrMessageReplayed", o, err)
	}
	// An envelope's label is the receiver's own pipe registration, not a
	// claim: it is not compared.
	if _, err := openWire(new(Opened), recvKP, forgeWire(t, ModeFull, []byte("x"), nil), formEnvelope, &wrong, nil, nil, time.Now()); err != nil {
		t.Fatalf("envelope under another label: %v", err)
	}
}

// TestOpenReplayRefusedAlikeByHandlerAndEntryPoint: the relay-push
// receiver and an exported entry point handed a guard refuse a replay
// with the same error and leave the guard in the same state — one entry,
// the slice's nonce — since they are the same code.
func TestOpenReplayRefusedAlikeByHandlerAndEntryPoint(t *testing.T) {
	net := simnet.NewNetwork(simnet.ProfileLocal)
	defer net.Close()
	cl, err := client.New(net, membership.NewNone(), "recv")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	wire := forgeWire(t, ModeSlice, []byte("once"), nil)

	// Through the entry point alone.
	direct := NewReplayGuard(time.Minute, 16)
	if _, err := OpenSlice(recvKP, wire, direct); err != nil {
		t.Fatal(err)
	}
	_, directErr := OpenSlice(recvKP, wire, direct)

	// Through the relay-push receiver, on a guard that admitted the same slice.
	pushed := NewReplayGuard(time.Minute, 16)
	if _, err := OpenSlice(recvKP, wire, pushed); err != nil {
		t.Fatal(err)
	}
	s := &SecureClient{Client: cl, kp: recvKP, replayGuard: pushed}
	alerts := events.NewCollector(cl.Bus())
	s.handleEnvelope("g", "urn:jxta:relay", endpoint.NewMessage().Add(proto.ElemEnvelope, wire), formSlice)
	got := alerts.OfType(events.SecurityAlert)
	if len(got) != 1 || len(alerts.OfType(events.SecureMessage)) != 0 {
		t.Fatalf("replayed push raised %d alerts and %d messages, want 1 and 0", len(got), len(alerts.OfType(events.SecureMessage)))
	}

	if !errors.Is(directErr, ErrMessageReplayed) || got[0].Payload["reason"] != directErr.Error() {
		t.Fatalf("entry point refused with %v, handler with %q", directErr, got[0].Payload["reason"])
	}
	if got[0].From != "urn:jxta:sender" {
		t.Fatalf("replay alert attributed to %q, want the signed sender", got[0].From)
	}
	if direct.Len() != 1 || pushed.Len() != direct.Len() {
		t.Fatalf("guard Len: entry point %d, handler %d, want 1 and 1: a slice is admitted by its nonce alone", direct.Len(), pushed.Len())
	}
}
