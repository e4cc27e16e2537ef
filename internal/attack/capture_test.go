// Capture integrity: the recipient of a secure message opens the AEAD in
// place, overwriting the delivered frame with plaintext. What an
// eavesdropper captured at transmission time must stay what crossed the
// wire — a tap that shared the delivered buffer would afterwards "see" a
// plaintext that never left the sender, and replay garbage.
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

func TestCapturedFrameUnchangedAfterOpen(t *testing.T) {
	s := newSecureStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	bob := s.join(t, "bob", "bob-secret-pw")
	got := events.NewCollector(bob.Bus())
	eve := attack.NewEavesdropper(s.net)
	note := strings.Repeat("my-private-note ", 64)
	if err := alice.SecureMsgPeer(testCtx(t), bob.PeerID(), "math", note); err != nil {
		t.Fatal(err)
	}
	// Wait until bob has opened it: by then his frame holds the plaintext.
	waituntil.Must(t, 5*time.Second, func() bool { return len(got.OfType(events.SecureMessage)) == 1 },
		"bob never raised SecureMessage")
	if body := got.OfType(events.SecureMessage)[0].Data; string(body) != note {
		t.Fatalf("bob opened %q", body)
	}
	if eve.SawString("my-private-note") {
		t.Fatal("the capture reads as plaintext: the tap shares the buffer the recipient opened in place")
	}
	// The captured frame is still the ciphertext bob was sent: it parses,
	// and its envelope opens under bob's key to the same body.
	opened := 0
	for _, frame := range eve.FramesTo(simnet.NodeID(bob.PeerID())) {
		f, err := endpoint.ParseFrame(frame)
		if err != nil {
			t.Fatalf("captured frame no longer parses: %v", err)
		}
		wire, ok := f.Msg.Get(proto.ElemEnvelope)
		if !ok {
			continue
		}
		o, err := core.Open(bob.Identity().Keys, wire)
		if err != nil || !bytes.Equal(o.Body, []byte(note)) {
			t.Fatalf("captured envelope does not open to what was sent: %v", err)
		}
		opened++
	}
	if opened != 1 {
		t.Fatalf("%d captured frames to bob carried an envelope, want 1", opened)
	}
}

// TestCapturedFrameReplayedTwice: one captured frame, replayed twice, is
// refused as the replay it is both times — by the guard for an envelope,
// by the channel's window for a frame — and never as malformed. The
// fabric delivers the buffer it is handed and the recipient opens it in
// place; a replayer that handed over its capture rather than a copy would
// have the second replay carry what the first open wrote.
func TestCapturedFrameReplayedTwice(t *testing.T) {
	capture := func(t *testing.T, eve *attack.Eavesdropper, to keys.PeerID, mode core.Mode) []byte {
		t.Helper()
		frames := eve.FramesTo(simnet.NodeID(to))
		for i := len(frames) - 1; i >= 0; i-- {
			if f, err := endpoint.ParseFrame(frames[i]); err == nil {
				if wire, ok := f.Msg.Get(proto.ElemEnvelope); ok && core.Mode(wire[0]) == mode {
					return frames[i]
				}
			}
		}
		t.Fatalf("no %s frame to %s captured", mode, to)
		return nil
	}
	replayTwice := func(t *testing.T, raw *attack.RawNode, from, to keys.PeerID, got *events.Collector, frame []byte) {
		t.Helper()
		for i := 0; i < 2; i++ {
			if err := raw.Replay(simnet.NodeID(to), frame); err != nil {
				t.Fatal(err)
			}
		}
		for _, a := range alerts(t, got, 2) {
			if a.Attr("reason") != core.ErrMessageReplayed.Error() || a.From != from {
				t.Errorf("a replay refused as %v from %s, want %v from %s", a.Payload, a.From, core.ErrMessageReplayed, from)
			}
		}
	}

	t.Run("envelope", func(t *testing.T) {
		s := newSecureStack(t)
		guard := core.WithReplayGuard(core.NewReplayGuard(time.Minute, 64))
		alice := s.join(t, "alice", "alice-secret-pw", core.WithMode(core.ModeFull))
		bob := s.join(t, "bob", "bob-secret-pw", guard)
		eve := attack.NewEavesdropper(s.net)
		got := events.NewCollector(bob.Bus())
		say(t, alice, bob.PeerID(), got, "pay invoice 7")
		raw, err := attack.NewRawNode(s.net, "attacker-node")
		if err != nil {
			t.Fatal(err)
		}
		replayTwice(t, raw, alice.PeerID(), bob.PeerID(), got, capture(t, eve, bob.PeerID(), core.ModeFull))
		if n := count(got, "pay invoice 7"); n != 1 {
			t.Fatalf("the message was raised %d times", n)
		}
	})

	t.Run("channel frame", func(t *testing.T) {
		p := newChannelPair(t, newSecureStack(t), false)
		say(t, p.alice, p.bob.PeerID(), p.atBob, "pay invoice 8")
		replayTwice(t, p.raw, p.alice.PeerID(), p.bob.PeerID(), p.atBob, capture(t, p.eve, p.bob.PeerID(), core.ModeChannel))
		if n := count(p.atBob, "pay invoice 8"); n != 1 {
			t.Fatalf("the message was raised %d times", n)
		}
	})
}
