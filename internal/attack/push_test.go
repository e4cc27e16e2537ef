// The relay-push surface. A client takes OpSliceDeliver pushes on its
// client service from any claimed source, off its group pipes' pumps. The
// relay pushes slices and nothing else, so that is all the surface opens:
// a captured envelope or frame pushed there is refused, never raised, and
// an offer inside one never runs the responder's handshake beside the
// pump that owns it. A push carries a batch of slices, each with its own
// claimed group and origin, and each is checked on its own: a bad one
// refuses only itself. A push whose records do not parse opens nothing.
package attack_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/waituntil"
)

// record is a push record of wire in group math, claiming origin.
func record(origin keys.PeerID, wire []byte) proto.SliceRecord {
	return proto.SliceRecord{Group: []byte("math"), Origin: []byte(origin), Slice: wire}
}

// pushAt pushes frame at to from the pair's attacker node.
func (p *channelPair) pushAt(t *testing.T, to keys.PeerID, frame []byte) {
	t.Helper()
	if err := p.raw.Replay(simnet.NodeID(to), frame); err != nil {
		t.Fatal(err)
	}
}

// roundTo is a round of text from alice, sealed to the keys of to in order.
func (p *channelPair) roundTo(t *testing.T, text string, to ...*keys.PublicKey) *core.DetachedRound {
	t.Helper()
	d, err := core.SealGroupDetached(p.alice.Identity().Keys, p.alice.PeerID(), "math", []byte(text), to)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// bobsSlice is the slice for bob of a round of text from alice to him.
func (p *channelPair) bobsSlice(t *testing.T, text string) []byte {
	return p.roundTo(t, text, p.bob.Identity().Keys.Public()).Slice(0)
}

// TestRelayPushRefusesEnvelopesAndFrames: alice's offer envelope and one
// of her channel frames, captured on their way to bob and pushed at him
// as relay deliveries, each raise a SecurityAlert and no SecureMessage,
// and bob signs nothing over them. A genuine slice pushed the same way
// still opens.
func TestRelayPushRefusesEnvelopesAndFrames(t *testing.T) {
	p := newChannelPair(t, newSecureStack(t), false)
	say(t, p.alice, p.bob.PeerID(), p.atBob, "pay invoice 42")
	offers := wiresTo(p.eve, p.bob.PeerID(), core.ModeFull)
	frames := wiresTo(p.eve, p.bob.PeerID(), core.ModeChannel)
	if len(offers) == 0 || len(frames) == 0 {
		t.Fatalf("%d offer envelopes and %d frames to bob on the wire", len(offers), len(frames))
	}
	bobSigned, raised := p.bob.Identity().Keys.SignCalls(), len(p.atBob.OfType(events.SecureMessage))
	push := func(wire []byte) {
		t.Helper()
		p.pushAt(t, p.bob.PeerID(), attack.SpoofedSlicePush(p.alice.PeerID(), record(p.alice.PeerID(), wire)))
	}
	push(offers[0])
	push(frames[len(frames)-1])
	for _, a := range alerts(t, p.atBob, 2) {
		if !strings.Contains(a.Attr("reason"), "not accepted here") {
			t.Errorf("pushed wire refused with %q, want a form the surface does not accept", a.Attr("reason"))
		}
	}
	if got := p.atBob.OfType(events.SecureMessage); len(got) != raised {
		t.Fatalf("pushed wires raised %d messages: %q", len(got)-raised, texts(p.atBob)[raised:])
	}
	if got := p.bob.Identity().Keys.SignCalls() - bobSigned; got != 0 {
		t.Fatalf("bob signed %d times over pushed wires he refused", got)
	}

	// What the relay does push opens there.
	push(p.bobsSlice(t, "a round for bob"))
	waituntil.Must(t, 5*time.Second, func() bool { return count(p.atBob, "a round for bob") == 1 }, "a pushed slice did not open")
}

// TestRelayPushForgedSliceRefusesOnlyItself: a batch of four slices for
// bob, the second with a byte of its ciphertext flipped, opens the three
// genuine ones, in order, and raises one SecurityAlert for the forged one.
func TestRelayPushForgedSliceRefusesOnlyItself(t *testing.T) {
	p := newChannelPair(t, newSecureStack(t), true)
	raised := len(texts(p.atBob))
	forged := p.bobsSlice(t, "forged")
	forged[len(forged)-1] ^= 1
	p.pushAt(t, p.bob.PeerID(), attack.SpoofedSlicePush(p.s.br.PeerID(),
		record(p.alice.PeerID(), p.bobsSlice(t, "one")),
		record(p.alice.PeerID(), forged),
		record(p.alice.PeerID(), p.bobsSlice(t, "two")),
		record(p.alice.PeerID(), p.bobsSlice(t, "three"))))
	want := []string{"one", "two", "three"}
	waituntil.Must(t, 5*time.Second, func() bool { return len(texts(p.atBob))-raised >= len(want) }, "the genuine slices did not open: %q", texts(p.atBob)[raised:])
	alerts(t, p.atBob, 1)
	if got := texts(p.atBob)[raised:]; strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("bob raised %q, want %q", got, want)
	}
}

// TestRelayPushOtherRecipientsSliceRefusedAlone: a batch that carries
// alice's slice of a round beside bob's own raises bob's message and one
// SecurityAlert, for the slice addressed to someone else.
func TestRelayPushOtherRecipientsSliceRefusedAlone(t *testing.T) {
	p := newChannelPair(t, newSecureStack(t), true)
	d := p.roundTo(t, "for bob and alice", p.bob.Identity().Keys.Public(), p.alice.Identity().Keys.Public())
	p.pushAt(t, p.bob.PeerID(), attack.SpoofedSlicePush(p.s.br.PeerID(),
		record(p.alice.PeerID(), d.Slice(1)),
		record(p.alice.PeerID(), d.Slice(0))))
	waituntil.Must(t, 5*time.Second, func() bool { return count(p.atBob, "for bob and alice") == 1 }, "bob's own slice did not open")
	if a := alerts(t, p.atBob, 1)[0]; !strings.Contains(a.Attr("reason"), core.ErrNotRecipient.Error()) {
		t.Fatalf("the slice for alice was refused with %q, want %q", a.Attr("reason"), core.ErrNotRecipient)
	}
}

// TestRelayPushRepeatedSliceOpensOnce: a slice pushed twice in one batch
// opens once; the second is refused as the replay it is, with one
// SecurityAlert.
func TestRelayPushRepeatedSliceOpensOnce(t *testing.T) {
	p := newChannelPair(t, newSecureStack(t), true)
	slice := p.bobsSlice(t, "twice in a batch")
	p.pushAt(t, p.bob.PeerID(), attack.SpoofedSlicePush(p.s.br.PeerID(),
		record(p.alice.PeerID(), slice), record(p.alice.PeerID(), bytes.Clone(slice))))
	if a := alerts(t, p.atBob, 1)[0]; a.Attr("reason") != core.ErrMessageReplayed.Error() {
		t.Fatalf("the repeated slice was refused with %q, want %q", a.Attr("reason"), core.ErrMessageReplayed)
	}
	if n := count(p.atBob, "twice in a batch"); n != 1 {
		t.Fatalf("the slice opened %d times, want once", n)
	}
}

// TestRelayPushUnparsableRecordsRefusedWhole: a push whose record section
// has a byte behind its two whole records is refused whole, with one
// SecurityAlert, before either slice is opened: the same two records
// pushed again, well formed, open, which they would not had the refused
// push spent their replay-guard entries.
func TestRelayPushUnparsableRecordsRefusedWhole(t *testing.T) {
	p := newChannelPair(t, newSecureStack(t), true)
	raised := len(texts(p.atBob))
	recs := []proto.SliceRecord{record(p.alice.PeerID(), p.bobsSlice(t, "first")), record(p.alice.PeerID(), p.bobsSlice(t, "second"))}
	good, err := endpoint.ParseFrame(attack.SpoofedSlicePush(p.s.br.PeerID(), recs...))
	if err != nil {
		t.Fatal(err)
	}
	section, _ := good.Msg.Get(proto.ElemSlices)
	p.pushAt(t, p.bob.PeerID(), endpoint.NewFrame(endpoint.Route{Src: p.s.br.PeerID(), Service: proto.ClientService},
		endpoint.Element{Name: proto.ElemOp, Data: []byte(proto.OpSliceDeliver)},
		endpoint.Element{Name: proto.ElemSlices, Data: append(bytes.Clone(section), 0)}))
	if a := alerts(t, p.atBob, 1)[0]; !strings.Contains(a.Attr("reason"), proto.ErrSliceRecords.Error()) {
		t.Fatalf("the push was refused with %q, want %q", a.Attr("reason"), proto.ErrSliceRecords)
	}
	if got := texts(p.atBob)[raised:]; len(got) != 0 {
		t.Fatalf("an unparsable push raised %q", got)
	}
	p.pushAt(t, p.bob.PeerID(), attack.SpoofedSlicePush(p.s.br.PeerID(), recs...))
	waituntil.Must(t, 5*time.Second, func() bool { return count(p.atBob, "first") == 1 && count(p.atBob, "second") == 1 },
		"the records of the refused push did not open when pushed whole: %q", texts(p.atBob))
	if n := len(p.atBob.OfType(events.SecurityAlert)); n != 1 {
		t.Fatalf("%d alerts, want the refused push's one", n)
	}
}
