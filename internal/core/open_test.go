package core

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/pipes"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/xmldoc"
)

// The five wire forms, in the column order of the pipeline table.
var pipelineForms = [5]Mode{ModeFull, ModeSign, ModeEncrypt, ModeGroup, ModeSlice}

func isRound(m Mode) bool { return m == ModeGroup || m == ModeSlice }

// openAs is the exported entry point that accepts m.
func openAs(m Mode, own *keys.KeyPair, wire []byte) (*Opened, error) {
	switch m {
	case ModeGroup:
		return OpenGroup(own, wire, nil)
	case ModeSlice:
		return OpenSlice(own, wire, nil)
	default:
		return Open(own, wire)
	}
}

// forgeWire seals body to recvKP (and, for rounds, evilKP beside it so a
// slice carries a non-empty proof) in form m, the way Seal and
// SealGroupDetached do, except that the finished header passes through
// edit (nil = unchanged) before it is packed — so a test can hand the
// pipeline a header no honest sender would produce behind a wire that
// is otherwise sound: right wraps, right bindings, authentic ciphertext.
func forgeWire(t *testing.T, m Mode, body []byte, edit func(h *xmldoc.Element) []byte) []byte {
	t.Helper()
	sign := func(h *xmldoc.Element) {
		sig, err := senderKP.Sign(h.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		h.AddText("Signature", base64.StdEncoding.EncodeToString(sig))
	}
	pack := func(h *xmldoc.Element) []byte {
		hdr := h.Canonical()
		if edit != nil {
			hdr = edit(h)
		}
		block := binary.BigEndian.AppendUint32(nil, uint32(len(hdr)))
		return append(append(block, hdr...), body...)
	}
	if !isRound(m) {
		h := headerDoc("urn:jxta:sender", "g", keys.SHA256(body), time.Now())
		if m != ModeEncrypt {
			sign(h)
		}
		if m == ModeSign {
			return append([]byte{byte(m)}, pack(h)...)
		}
		env, err := recvKP.Public().Encrypt(pack(h))
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte{byte(m)}, env.Marshal()...)
	}
	cek, err := keys.NewContentKey()
	if err != nil {
		t.Fatal(err)
	}
	d := &DetachedRound{fps: make([][32]byte, 2), wraps: make([][]byte, 2)}
	for i, kp := range []*keys.KeyPair{recvKP, evilKP} {
		if d.fps[i], err = kp.Public().Fingerprint(); err != nil {
			t.Fatal(err)
		}
		if d.wraps[i], err = kp.Public().WrapKey(cek); err != nil {
			t.Fatal(err)
		}
	}
	d.levels = sliceLevels(d.fps, d.wraps)
	h := xmldoc.New(roundHeaderName, "")
	h.AddText("Sender", "urn:jxta:sender")
	h.AddText("Group", "g")
	h.AddText("BodyDigest", base64.StdEncoding.EncodeToString(keys.SHA256(body)))
	h.AddText("Time", nowUTCRFC3339())
	h.AddText("Nonce", base64.StdEncoding.EncodeToString(bytes.Repeat([]byte{7}, roundNonceSize)))
	h.AddText("Recipients", base64.StdEncoding.EncodeToString(recipientsDigest(d.fps)))
	h.AddText(sliceRootName, base64.StdEncoding.EncodeToString(d.levels[len(d.levels)-1][0]))
	sign(h)
	if d.gcmNonce, d.ct, err = keys.AEADSeal(cek, pack(h)); err != nil {
		t.Fatal(err)
	}
	if m == ModeGroup {
		return d.Wire()
	}
	return d.Slice(0)
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
	case ModeSign:
		skip(u32()) // header; the body runs to the end
	case ModeFull, ModeEncrypt:
		skip(u32()) // wrapped key
		skip(u32()) // GCM nonce
		skip(u32()) // ciphertext
	case ModeGroup:
		for n := u32(); n > 0; n-- {
			skip(32)    // fingerprint
			skip(u32()) // wrap
		}
		skip(u32()) // GCM nonce; the ciphertext runs to the end
	case ModeSlice:
		u32()       // recipient count
		skip(4)     // leaf index
		skip(32)    // fingerprint
		skip(u32()) // wrap
		proofLen := int(wire[off])
		skip(1)
		skip(32 * proofLen)
		skip(u32()) // GCM nonce; the ciphertext runs to the end
	}
	return out
}

// TestOpenPipelineTable pins the one open path as a table: wire form ×
// defect → error identity (nil = opens). Every cell goes through the
// exported entry point that accepts the form, i.e. through openWire.
func TestOpenPipelineTable(t *testing.T) {
	body := []byte("pipeline table body")
	valid := func(t *testing.T, m Mode) []byte { return forgeWire(t, m, body, nil) }
	header := func(edit func(h *xmldoc.Element) []byte) func(*testing.T, Mode) []byte {
		return func(t *testing.T, m Mode) []byte { return forgeWire(t, m, body, edit) }
	}
	without := func(name string) func(h *xmldoc.Element) []byte {
		return func(h *xmldoc.Element) []byte { h.RemoveChildren(name); return h.Canonical() }
	}
	with := func(name, text string) func(h *xmldoc.Element) []byte {
		return func(h *xmldoc.Element) []byte {
			h.RemoveChildren(name)
			h.AddText(name, text)
			return h.Canonical()
		}
	}
	flip := func(at func(wire []byte) int) func(*testing.T, Mode) []byte {
		return func(t *testing.T, m Mode) []byte {
			wire := valid(t, m)
			wire[at(wire)] ^= 0x01
			return wire
		}
	}
	// n/a marks a cell the defect cannot be built for.
	na := errors.New("n/a")

	for _, tc := range []struct {
		name string
		wire func(t *testing.T, m Mode) []byte
		key  *keys.KeyPair // recvKP unless set
		want [5]error      // Full, Sign, Encrypt, Group, Slice
	}{
		{name: "valid", wire: valid},
		{
			name: "flipped ciphertext byte", // for ModeSign the last byte is body
			wire: flip(func(w []byte) int { return len(w) - 1 }),
			want: [5]error{ErrNotRecipient, ErrBodyDigest, ErrNotRecipient, ErrEnvelope, ErrEnvelope},
		},
		{
			name: "flipped wrap byte",
			wire: flip(func(w []byte) int {
				switch Mode(w[0]) {
				case ModeGroup:
					return 1 + 4 + 32 + 4 + 9
				case ModeSlice:
					return 1 + 4 + 4 + 32 + 4 + 9
				default:
					return 1 + 4 + 9
				}
			}),
			want: [5]error{ErrNotRecipient, na, ErrNotRecipient, ErrNotRecipient, ErrNotRecipient},
		},
		{
			name: "body digest mismatch",
			wire: header(with("BodyDigest", base64.StdEncoding.EncodeToString(keys.SHA256([]byte("other"))))),
			want: [5]error{ErrBodyDigest, ErrBodyDigest, ErrBodyDigest, ErrBodyDigest, ErrBodyDigest},
		},
		{
			name: "body digest not base64",
			wire: header(with("BodyDigest", "!!")),
			want: [5]error{ErrEnvelope, ErrEnvelope, ErrEnvelope, ErrEnvelope, ErrEnvelope},
		},
		{
			name: "wrong header root name",
			wire: header(func(h *xmldoc.Element) []byte {
				return bytes.ReplaceAll(h.Canonical(), []byte(h.Name), []byte("SecureBogus"))
			}),
			want: [5]error{ErrEnvelope, ErrEnvelope, ErrEnvelope, ErrEnvelope, ErrEnvelope},
		},
		{
			name: "round header in an envelope, envelope header in a round",
			wire: header(func(h *xmldoc.Element) []byte {
				other := roundHeaderName
				if h.Name == roundHeaderName {
					other = "SecureMessage"
				}
				return bytes.ReplaceAll(h.Canonical(), []byte(h.Name), []byte(other))
			}),
			want: [5]error{ErrEnvelope, ErrEnvelope, ErrEnvelope, ErrEnvelope, ErrEnvelope},
		},
		{
			name: "header not well-formed",
			wire: header(func(h *xmldoc.Element) []byte { c := h.Canonical(); return c[:len(c)-1] }),
			want: [5]error{ErrEnvelope, ErrEnvelope, ErrEnvelope, ErrEnvelope, ErrEnvelope},
		},
		{
			name: "missing Time",
			wire: header(without("Time")),
			want: [5]error{ErrEnvelope, ErrEnvelope, ErrEnvelope, ErrEnvelope, ErrEnvelope},
		},
		{
			name: "garbled Time",
			wire: header(with("Time", "yesterday")),
			want: [5]error{ErrEnvelope, ErrEnvelope, ErrEnvelope, ErrEnvelope, ErrEnvelope},
		},
		{
			// An envelope without a signature is the degraded, unauthenticated
			// delivery (Signed() false); a round is always signed.
			name: "missing Signature",
			wire: header(without("Signature")),
			want: [5]error{nil, nil, nil, ErrNoSignature, ErrNoSignature},
		},
		{
			name: "Signature not base64",
			wire: header(with("Signature", "!!")),
			want: [5]error{ErrEnvelope, ErrEnvelope, ErrEnvelope, ErrEnvelope, ErrEnvelope},
		},
		{
			name: "bad nonce length", // envelopes carry no nonce and ignore one
			wire: header(with("Nonce", base64.StdEncoding.EncodeToString([]byte("short")))),
			want: [5]error{nil, nil, nil, ErrEnvelope, ErrEnvelope},
		},
		{
			name: "missing Nonce",
			wire: header(without("Nonce")),
			want: [5]error{nil, nil, nil, ErrEnvelope, ErrEnvelope},
		},
		{
			name: "flat Recipients digest over another set", // a slice does not read it
			wire: header(with("Recipients", base64.StdEncoding.EncodeToString(keys.SHA256([]byte("others"))))),
			want: [5]error{nil, nil, nil, ErrRoundBinding, nil},
		},
		{
			name: "SliceRoot over another set", // a full round does not read it
			wire: header(with(sliceRootName, base64.StdEncoding.EncodeToString(keys.SHA256([]byte("others"))))),
			want: [5]error{nil, nil, nil, nil, ErrRoundBinding},
		},
		{
			name: "missing SliceRoot",
			wire: header(without(sliceRootName)),
			want: [5]error{nil, nil, nil, nil, ErrRoundBinding},
		},
		{
			// The binding is checked before any signed field is trusted: a
			// header that fails both reports the binding.
			name: "binding mismatch and garbled Time",
			wire: header(func(h *xmldoc.Element) []byte {
				with("Recipients", "")(h)
				with(sliceRootName, "")(h)
				return with("Time", "yesterday")(h)
			}),
			want: [5]error{ErrEnvelope, ErrEnvelope, ErrEnvelope, ErrRoundBinding, ErrRoundBinding},
		},
		{
			name: "wrong recipient", // a sign-only envelope names none
			wire: valid,
			key:  senderKP,
			want: [5]error{ErrNotRecipient, nil, ErrNotRecipient, ErrNotRecipient, ErrNotRecipient},
		},
		{
			name: "slice re-addressed to another member's fingerprint",
			wire: func(t *testing.T, m Mode) []byte {
				wire := valid(t, m)
				if m == ModeSlice {
					fp, _ := evilKP.Public().Fingerprint()
					copy(wire[1+4+4:], fp[:])
				}
				return wire
			},
			want: [5]error{na, na, na, na, ErrNotRecipient},
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
			if err == nil && (o.Mode != m || !bytes.Equal(o.Body, body) || (o.Nonce != nil) != isRound(m) || (o.HeaderXML() != nil) != isRound(m)) {
				t.Errorf("%s / %s: opened = %+v", tc.name, m, o)
			}
		}
	}

	// No key at all: only the form that is not encrypted opens.
	for _, m := range pipelineForms {
		want := ErrNotRecipient
		if m == ModeSign {
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
		for _, entry := range pipelineForms[2:] { // Open, OpenGroup, OpenSlice
			accepts := entry == m || (!isRound(entry) && !isRound(m))
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

// TestOpenPipelineTruncation cuts a valid wire of each form at (and one
// byte either side of) every count/length-prefix boundary. Every cut is
// ErrEnvelope, with one exception that follows from the layout: a
// sign-only envelope's body is the unframed tail of the wire, so a cut
// there leaves a well-formed block whose digest no longer matches.
func TestOpenPipelineTruncation(t *testing.T) {
	for _, m := range pipelineForms {
		wire := forgeWire(t, m, []byte("truncate me"), nil)
		bounds := prefixBoundaries(wire)
		signBody := -1
		if m == ModeSign {
			signBody = bounds[len(bounds)-1]
		}
		cuts := map[int]bool{0: true, 1: true, len(wire) - 1: true}
		for _, b := range bounds {
			for _, c := range []int{b - 1, b, b + 1} {
				if c >= 0 && c < len(wire) {
					cuts[c] = true
				}
			}
		}
		if len(cuts) < 8 {
			t.Fatalf("%s: only %d cut points from boundaries %v", m, len(cuts), bounds)
		}
		for cut := range cuts {
			want := ErrEnvelope
			if signBody >= 0 && cut >= signBody {
				want = ErrBodyDigest
			}
			if o, err := openAs(m, recvKP, wire[:cut]); !errors.Is(err, want) || o != nil {
				t.Errorf("%s cut at %d/%d: (%v, %v), want %v", m, cut, len(wire), o, err, want)
			}
		}
	}
}

// TestOpenRoundWrongLabelDoesNotBurnNonce: the claimed-group check runs
// before the guard, so a round delivered under the wrong group label is
// refused without spending its single-use nonce — the same round then
// opens under the right label, once.
func TestOpenRoundWrongLabelDoesNotBurnNonce(t *testing.T) {
	for _, m := range pipelineForms[3:] {
		wire := forgeWire(t, m, []byte("labelled"), nil)
		guard := NewReplayGuard(time.Minute, 16)
		wrong, right := "art", "g"
		// openWire consumes what it is handed; every delivery is its own
		// copy of the bytes, as every frame the fabric delivers is.
		o, err := openWire(recvKP, bytes.Clone(wire), formGroup|formSlice, &wrong, guard)
		if !errors.Is(err, ErrRoundGroup) {
			t.Fatalf("%s under the wrong label: err = %v, want ErrRoundGroup", m, err)
		}
		if o == nil || o.Sender != "urn:jxta:sender" {
			t.Fatalf("%s: wrong-label refusal does not name the signed sender: %+v", m, o)
		}
		if guard.Len() != 0 {
			t.Fatalf("%s: wrong-label delivery left %d guard entries, want 0", m, guard.Len())
		}
		if _, err := openWire(recvKP, bytes.Clone(wire), formGroup|formSlice, &right, guard); err != nil {
			t.Fatalf("%s under the right label after a wrong one: %v", m, err)
		}
		if guard.Len() != 2 {
			t.Fatalf("%s: admitted round left %d guard entries, want 2 (wire digest + nonce)", m, guard.Len())
		}
		o, err = openWire(recvKP, bytes.Clone(wire), formGroup|formSlice, &right, guard)
		if !errors.Is(err, ErrMessageReplayed) || o == nil {
			t.Fatalf("%s delivered twice under the right label: (%v, %v), want the Opened and ErrMessageReplayed", m, o, err)
		}
		// An envelope's label is the receiver's own pipe registration, not
		// a claim: it is not compared.
		if _, err := openWire(recvKP, forgeWire(t, ModeFull, []byte("x"), nil), formEnvelope, &wrong, nil); err != nil {
			t.Fatalf("envelope under another label: %v", err)
		}
	}
}

// TestOpenReplayRefusedAlikeByHandlerAndEntryPoint: the messenger push
// handler and an exported entry point handed a guard refuse a replay
// with the same error and leave the guard in the same state — they are
// the same code.
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

	// Through the push handler, on a guard that admitted the same slice.
	pushed := NewReplayGuard(time.Minute, 16)
	if _, err := OpenSlice(recvKP, wire, pushed); err != nil {
		t.Fatal(err)
	}
	s := &SecureClient{Client: cl, kp: recvKP, replayGuard: pushed}
	alerts := events.NewCollector(cl.Bus())
	s.handleEnvelope("g", pipes.Delivery{From: "urn:jxta:relay", Msg: endpoint.NewMessage().Add(proto.ElemEnvelope, wire)})
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
	if direct.Len() != 2 || pushed.Len() != direct.Len() {
		t.Fatalf("guard Len: entry point %d, handler %d, want 2 and 2", direct.Len(), pushed.Len())
	}
}

// TestOpenSharedGuardAdmitsOnce: the messenger handler and the task
// service reach one guard from different goroutines. However many
// deliveries of one round race — the same bytes, or the same signed
// header re-cut as another wire — exactly one is admitted.
func TestOpenSharedGuardAdmitsOnce(t *testing.T) {
	guard := NewReplayGuard(time.Minute, 64)
	wires := [2][]byte{}
	wires[0] = forgeWire(t, ModeGroup, []byte("race"), nil)
	d, err := SliceRound(wires[0])
	if err != nil {
		t.Fatal(err)
	}
	wires[1] = d.Slice(0) // same round, same nonce, different bytes
	const deliveries = 8
	errs := make(chan error, deliveries)
	for i := 0; i < deliveries; i++ {
		go func(wire []byte) {
			_, err := openWire(recvKP, bytes.Clone(wire), formGroup|formSlice, nil, guard)
			errs <- err
		}(wires[i%2])
	}
	admitted := 0
	for i := 0; i < deliveries; i++ {
		if err := <-errs; err == nil {
			admitted++
		} else if !errors.Is(err, ErrMessageReplayed) {
			t.Errorf("racing delivery refused with %v, want ErrMessageReplayed", err)
		}
	}
	if admitted != 1 {
		t.Fatalf("%d of %d racing deliveries admitted, want 1", admitted, deliveries)
	}
}
