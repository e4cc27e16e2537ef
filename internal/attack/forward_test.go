// Sign-then-encrypt forwarding: the paper's E_PK(m, S_SK(m)) signs a
// header that, as published, names the sender and not the recipient. A
// legitimate recipient can then re-encrypt the signed block to a third
// peer, who sees an authenticated message from the sender that the
// sender never sent it. The signed header's To closes that.
package attack_test

import (
	"strings"
	"testing"
	"time"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
)

// forwardedEnvelopeRefused has alice send mallory one message, lets
// mallory re-encrypt its signed block to bob and put it on bob's pipe,
// and requires bob to refuse it.
func forwardedEnvelopeRefused(t *testing.T, aliceOpts ...core.Option) {
	s := newSecureStack(t)
	alice := s.join(t, "alice", "alice-secret-pw", aliceOpts...)
	bob := s.join(t, "bob", "bob-secret-pw")
	mallory := s.join(t, "mallory", "mallory-pw")
	eve := attack.NewEavesdropper(s.net)
	malloryEvents := events.NewCollector(mallory.Bus())
	bobEvents := events.NewCollector(bob.Bus())
	bobSigned := bob.Identity().Keys.SignCalls()
	ctx := testCtx(t)

	const note = "for mallory's eyes: bob is being let go on friday"
	if err := alice.SecureMsgPeer(ctx, mallory.PeerID(), "math", note); err != nil {
		t.Fatal(err)
	}
	if _, ok := malloryEvents.WaitFor(events.SecureMessage, 5*time.Second); !ok {
		t.Fatal("mallory never received alice's message")
	}
	var forwarded []byte
	for _, frame := range eve.FramesTo(simnet.NodeID(mallory.PeerID())) {
		f, err := endpoint.ParseFrame(frame)
		if err != nil {
			continue
		}
		if wire, ok := f.Msg.Get(proto.ElemEnvelope); ok && core.Mode(wire[0]) == core.ModeFull {
			if forwarded, err = attack.ForwardEnvelope(mallory.Identity().Keys, wire, bob.Identity().Keys.Public()); err != nil {
				t.Fatalf("mallory could not re-encrypt what she was sent: %v", err)
			}
		}
	}
	if forwarded == nil {
		t.Fatal("no envelope to mallory on the wire")
	}
	bobPipe, _, err := mallory.LookupPipe(ctx, bob.PeerID(), "math")
	if err != nil {
		t.Fatal(err)
	}
	msg := endpoint.NewMessage().Add(proto.ElemEnvelope, forwarded).AddString(proto.ElemGroup, "math")
	if err := mallory.Control().SendOnPipe(bobPipe, nil, msg.Elements...); err != nil {
		t.Fatal(err)
	}
	alertEv, ok := bobEvents.WaitFor(events.SecurityAlert, 5*time.Second)
	if !ok {
		for _, e := range bobEvents.OfType(events.SecureMessage) {
			t.Errorf("bob raised SecureMessage from %s (authenticated=%s): %q — a message alice never sent him",
				e.From, e.Attr("authenticated"), e.Data)
		}
		t.Fatal("bob raised no alert for an envelope signed for someone else")
	}
	if !strings.Contains(alertEv.Attr("reason"), core.ErrNotRecipient.Error()) {
		t.Fatalf("bob refused the forwarded envelope with %q, want %q", alertEv.Attr("reason"), core.ErrNotRecipient)
	}
	// One delivery raises an alert or a message, never both; and an offer
	// in a refused envelope is answered by nobody.
	if got := bobEvents.OfType(events.SecureMessage); len(got) != 0 {
		t.Fatalf("bob surfaced the forwarded envelope: %q", got[0].Data)
	}
	if got := bob.Identity().Keys.SignCalls() - bobSigned; got != 0 {
		t.Fatalf("bob signed %d times over an envelope he refused", got)
	}
}

// TestForwardedEnvelopeRefused: the paper's stateless primitive.
func TestForwardedEnvelopeRefused(t *testing.T) {
	forwardedEnvelopeRefused(t, core.WithMode(core.ModeFull))
}
