package core

import (
	"bytes"
	"errors"
	"strings"
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

// offerPair is the far end of pendingOffer's offer.
var offerPair = pairKey{"urn:jxta:sender", "g"}

// pendingOffer is a table holding one offer, made at now as sendEnvelope
// makes it: from "urn:jxta:recv" (recvKP) to offerPair, whose certified
// key is senderKP's. ends is what the responder answers it with.
func pendingOffer(tb testing.TB, now time.Time) (chans *channelTable, hs *handshake, ends channelEnds) {
	tb.Helper()
	ends = channelEnds{initiator: "urn:jxta:recv", responder: offerPair.peer, group: offerPair.group}
	ends.initiatorFP, _ = recvKP.Public().Fingerprint()
	ends.responderFP, _ = senderKP.Public().Fingerprint()
	ends.responderStatic, _ = senderKP.Public().AgreementShare()
	chans = &channelTable{}
	id, share, err := chans.offer(offerPair, nil, ends, now.Add(time.Hour), now)
	if err != nil || id == nil {
		tb.Fatalf("offer = (%x, %v)", id, err)
	}
	ends.initiatorShare = share
	return chans, &handshake{id: channelID(id), share: share}, ends
}

// flipAccept is the honest accept with one bit flipped at.
func flipAccept(at int) func(*testing.T, []byte, channelEnds) [][]byte {
	return func(_ *testing.T, honest []byte, _ channelEnds) [][]byte {
		w := bytes.Clone(honest)
		w[at] ^= 0x08
		return [][]byte{w}
	}
}

// TestChannelSeqWindow: each sequence number is admitted once, in any
// order inside the window; what has fallen out of it, zero, and numbers
// beyond a channel's budget never are.
func TestChannelSeqWindow(t *testing.T) {
	for _, tc := range []struct {
		name string
		seqs []uint64
		want []bool
	}{
		{"in order", []uint64{1, 2, 3}, []bool{true, true, true}},
		{"each once", []uint64{1, 1, 2, 2, 1}, []bool{true, false, true, false, false}},
		{"reversed", []uint64{5, 4, 3, 2, 1, 3}, []bool{true, true, true, true, true, false}},
		{"zero and beyond the budget", []uint64{0, channelBudget, channelBudget + 1}, []bool{false, true, false}},
		{"window edge", []uint64{seqWindow + 5, 6, 5, seqWindow + 4}, []bool{true, true, false, true}},
		{"a jump clears what it passes", []uint64{3, 3 + seqWindow, 3 + 2*seqWindow, 4 + seqWindow, 3 + seqWindow}, []bool{true, true, true, true, false}},
		{"a short jump keeps what it does not pass", []uint64{10, 8, 12, 8, 9, 11, 10}, []bool{true, true, true, false, true, true, false}},
		{"slots are reused", []uint64{1, seqWindow, seqWindow + 1, 2 * seqWindow, 2*seqWindow + 1, seqWindow + 1, 1}, []bool{true, true, true, true, true, false, false}},
	} {
		var c inChannel
		for i, seq := range tc.seqs {
			if got := c.admit(seq); got != tc.want[i] {
				t.Errorf("%s: admit(%d) at step %d = %v, want %v", tc.name, seq, i, got, tc.want[i])
			}
			if tc.want[i] && !c.has(seq) {
				t.Errorf("%s: %d admitted and not remembered", tc.name, seq)
			}
		}
	}
}

// TestChannelFrameFromAnotherSenderAlerted: nothing in a frame can name a
// sender — it is whoever holds the key of the channel the frame names. A
// peer that holds one channel to this recipient and puts ANOTHER channel's
// ID on a frame sealed under its own key has made a frame that fails that
// channel's tag: refused before anything in it is read, alerted against
// whoever delivered it, and raised in nobody's name.
func TestChannelFrameFromAnotherSenderAlerted(t *testing.T) {
	net := simnet.NewNetwork(simnet.ProfileLocal)
	defer net.Close()
	cl, err := client.New(net, membership.NewNone(), "recv")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s := &SecureClient{Client: cl, kp: recvKP}
	// The attacker's channel (the table channel: its key is the attacker's
	// to use) and the victim's, under a key the attacker does not hold.
	holdTableChannel(&s.chans)
	victimID := channelID{0xb0, 0xb}
	victimAEAD, err := keys.NewAEAD(bytes.Repeat([]byte{0x7a}, 32))
	if err != nil {
		t.Fatal(err)
	}
	s.chans.install(&inChannel{id: victimID, pair: pairKey{"urn:jxta:victim", "g"}, user: "victim", aead: victimAEAD}, time.Now().Add(time.Hour), time.Now())
	got := events.NewCollector(cl.Bus())
	deliver := func(wire []byte) {
		s.handleEnvelope("g", "urn:jxta:deliverer", endpoint.NewMessage().Add(proto.ElemEnvelope, wire), pipeForms)
	}
	deliver(forgeFrame(victimID, 1, framePlain(time.Now(), []byte("as someone else"))))
	alerts := got.OfType(events.SecurityAlert)
	if len(alerts) != 1 || len(got.OfType(events.SecureMessage)) != 0 {
		t.Fatalf("%d alerts and %d messages, want 1 and 0", len(alerts), len(got.OfType(events.SecureMessage)))
	}
	if alerts[0].From != "urn:jxta:deliverer" || !strings.Contains(alerts[0].Payload["reason"], ErrEnvelope.Error()) {
		t.Fatalf("alert %v against %s, want %v against the deliverer: a frame that fails its tag is nobody's", alerts[0].Payload, alerts[0].From, ErrEnvelope)
	}
	// The tag is checked before the sequence number is admitted: the
	// refused frame spent number 1 of neither channel.
	deliver(sealFrame(nil, victimAEAD, frameRef{victimID, 1}, []byte("the victim's own"), time.Now()))
	deliver(forgeWire(t, ModeChannel, []byte("honest"), nil))
	if alerts = got.OfType(events.SecurityAlert); len(alerts) != 1 {
		t.Fatalf("a frame's sequence number was admitted before its tag was checked: %d alerts", len(alerts))
	}
	msgs := got.OfType(events.SecureMessage)
	if len(msgs) != 2 || msgs[0].From != "urn:jxta:victim" || msgs[0].Attr("user") != "victim" || !bytes.Equal(msgs[0].Data, []byte("the victim's own")) {
		t.Fatalf("the victim's own frame raised %+v", msgs)
	}
	if !bytes.Equal(msgs[1].Data, []byte("honest")) || msgs[1].From != "urn:jxta:sender" ||
		msgs[1].Attr("authenticated") != "true" || msgs[1].Attr("user") != "sender" || msgs[1].Attr("mode") != ModeChannel.String() {
		t.Fatalf("honest frame raised %+v", msgs[1])
	}
}

// TestFramesDoNotEvictGuardEntries: the guard's table is for wires that
// carry no sequence number, and a channel's frames — thousands a second —
// stay out of it. When every frame was admitted by wire digest, 5,000 of
// them (0.2 s of unicast traffic) filled the 4,096 entries and evicted a
// round nonce admitted just before them while it was still fresh: the
// round could then be replayed.
func TestFramesDoNotEvictGuardEntries(t *testing.T) {
	guard := NewReplayGuard(0, 0)
	now := time.Now()
	nonce := bytes.Repeat([]byte{7}, roundNonceSize)
	if err := guard.CheckRound("urn:jxta:sender", nonce, now); err != nil {
		t.Fatal(err)
	}
	held, evicted := guard.Len(), ReplayEvictions()
	chans, aead, body := tableChannels(), tableAEAD(), []byte("one of many")
	for seq := uint64(1); seq <= 5000; seq++ {
		wire := sealFrame(nil, aead, frameRef{tableChannelID, seq}, body, now)
		if _, err := openWire(nil, wire, formChannel, nil, guard, chans, now); err != nil {
			t.Fatalf("frame %d: %v", seq, err)
		}
	}
	if err := guard.CheckRound("urn:jxta:sender", nonce, now); !errors.Is(err, ErrMessageReplayed) {
		t.Errorf("the round's nonce again, 5,000 frames later: err = %v, want ErrMessageReplayed", err)
	}
	if got := ReplayEvictions() - evicted; got != 0 {
		t.Errorf("%d live guard entries evicted while the frames were opened, want none", got)
	}
	if got := guard.Len(); got != held {
		t.Errorf("guard holds %d entries after the frames, %d before them", got, held)
	}
}
