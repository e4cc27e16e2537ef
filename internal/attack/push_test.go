// The relay-push surface. A client takes OpSliceDeliver pushes on its
// client service from any claimed source, off its group pipes' pumps. The
// relay pushes slices and nothing else, so that is all the surface opens:
// a captured envelope or frame pushed there is refused, never raised, and
// an offer inside one never runs the responder's handshake beside the
// pump that owns it.
package attack_test

import (
	"strings"
	"testing"
	"time"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/waituntil"
)

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
		if err := p.raw.Replay(simnet.NodeID(p.bob.PeerID()), attack.SpoofedSlicePush(p.alice.PeerID(), "math", wire)); err != nil {
			t.Fatal(err)
		}
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
	d, err := core.SealGroupDetached(p.alice.Identity().Keys, p.alice.PeerID(), "math", []byte("a round for bob"),
		[]*keys.PublicKey{p.bob.Identity().Keys.Public()})
	if err != nil {
		t.Fatal(err)
	}
	push(d.Slice(0))
	waituntil.Must(t, 5*time.Second, func() bool { return count(p.atBob, "a round for bob") == 1 }, "a pushed slice did not open")
}
