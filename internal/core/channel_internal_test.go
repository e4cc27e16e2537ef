package core

import (
	"bytes"
	"testing"

	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/pipes"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/xmldoc"
)

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

// TestChannelFrameFromAnotherSenderAlerted: a frame whose header names a
// sender other than its channel's peer is the channel peer's doing — only
// it holds the key — and is alerted against it, not against whoever the
// header names or the frame claims to come from.
func TestChannelFrameFromAnotherSenderAlerted(t *testing.T) {
	net := simnet.NewNetwork(simnet.ProfileLocal)
	defer net.Close()
	cl, err := client.New(net, membership.NewNone(), "recv")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s := &SecureClient{Client: cl, kp: recvKP}
	holdTableChannel(&s.chans)
	got := events.NewCollector(cl.Bus())
	deliver := func(wire []byte) {
		s.handleEnvelope("g", pipes.Delivery{From: "urn:jxta:deliverer", Msg: endpoint.NewMessage().Add(proto.ElemEnvelope, wire)})
	}
	deliver(forgeWire(t, ModeChannel, []byte("as someone else"), func(h *xmldoc.Element) []byte {
		h.RemoveChildren("Sender")
		h.AddText("Sender", "urn:jxta:victim")
		return h.Canonical()
	}))
	alerts := got.OfType(events.SecurityAlert)
	if len(alerts) != 1 || len(got.OfType(events.SecureMessage)) != 0 {
		t.Fatalf("%d alerts and %d messages, want 1 and 0", len(alerts), len(got.OfType(events.SecureMessage)))
	}
	if alerts[0].From != "urn:jxta:sender" || alerts[0].Payload["reason"] != ErrChannelPeer.Error() {
		t.Fatalf("alert %v against %s, want %v against the channel's peer", alerts[0].Payload, alerts[0].From, ErrChannelPeer)
	}
	// A header is held to its channel before the sequence number is
	// admitted: the refused frame did not spend number 1.
	deliver(forgeWire(t, ModeChannel, []byte("honest"), nil))
	if alerts = got.OfType(events.SecurityAlert); len(alerts) != 1 {
		t.Fatalf("the frame's sequence number was admitted before its header was held to the channel: %d alerts", len(alerts))
	}
	if msgs := got.OfType(events.SecureMessage); len(msgs) != 1 || !bytes.Equal(msgs[0].Data, []byte("honest")) ||
		msgs[0].Attr("authenticated") != "true" || msgs[0].Attr("user") != "sender" || msgs[0].Attr("mode") != ModeChannel.String() {
		t.Fatalf("honest frame raised %+v", msgs)
	}
}
