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
		msg, err := endpoint.ParseMessage(frame)
		if err != nil {
			t.Fatalf("captured frame no longer parses: %v", err)
		}
		wire, ok := msg.Get(proto.ElemEnvelope)
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
