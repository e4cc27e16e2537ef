// Header splicing across forms. Every message form but a channel's
// carries one signed header in one binary layout, and what binds it to its
// recipient differs by form: an envelope's To, a slice's tree root. A
// recipient holding a validly signed header of one form — an envelope sent
// to it, its cut of a round — can try to pass it off as another form to a
// peer it was not sent to. The kind the header was sealed under is the
// first byte its signature covers, and each form opens only its own.
package attack_test

import (
	"bytes"
	"fmt"
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

// TestHeaderSplicedAcrossFormsRefused: mallory holds alice's signed
// envelope to her and her cut of alice's round, and tries on bob, who was
// sent neither: the envelope's block in the clear behind the sign-only
// form's retired mode byte, the round header inside an envelope, the
// envelope header behind bob's leaf of another of alice's rounds — each
// with the kind it was signed under and with the kind the new form wants
// written over it. None opens at bob as a message alice signed.
func TestHeaderSplicedAcrossFormsRefused(t *testing.T) {
	alice, bob, mallory, carol := newRoundParty(t), newRoundParty(t), newRoundParty(t), newRoundParty(t)
	body := []byte("for mallory's eyes")
	refused := func(name string, opened *core.Opened, err error) {
		t.Helper()
		if err == nil && opened.VerifySignature(alice.kp.Public()) == nil {
			t.Errorf("%s: bob opened it as alice's %s message", name, opened.Mode)
		}
	}
	relabel := func(header []byte, kind core.Mode) []byte {
		h := bytes.Clone(header)
		h[0] = byte(kind)
		return h
	}

	sealed, err := core.Seal(alice.kp, alice.id, "math", body, mallory.kp.Public(), core.ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	toMallory, err := core.Open(mallory.kp, sealed.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.SealGroupDetached(alice.kp, alice.id, "math", body, []*keys.PublicKey{mallory.kp.Public(), carol.kp.Public()})
	if err != nil {
		t.Fatal(err)
	}
	cut, err := core.OpenSlice(mallory.kp, d.Slice(0), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Her envelope's block in the clear, behind the sign-only form's mode
	// byte: that form is gone, and a wire that names it is no form at all.
	o, err := core.Open(bob.kp, append([]byte{'S'}, attack.Block(toMallory.Header(), toMallory.Body)...))
	refused("alice's envelope to mallory as a sign-only wire", o, err)

	// Her round header inside an envelope to bob.
	for _, kind := range []core.Mode{core.ModeGroup, core.ModeFull} {
		wire, err := attack.EnvelopeTo(bob.kp.Public(), attack.Block(relabel(cut.Header(), kind), cut.Body))
		if err != nil {
			t.Fatal(err)
		}
		o, err := core.Open(bob.kp, wire)
		refused(fmt.Sprintf("alice's round header in an envelope to bob, kind %s", kind), o, err)
	}

	// Her envelope header behind bob's leaf of a round alice sealed to him
	// and mallory: mallory seals it under that round's key and nonce, so
	// bob's wrap opens it. The round's own header spliced the same way
	// opens: what refuses the others is the header.
	d, err = core.SealGroupDetached(alice.kp, alice.id, "math", body, []*keys.PublicKey{bob.kp.Public(), mallory.kp.Public()})
	if err != nil {
		t.Fatal(err)
	}
	own, err := core.OpenSlice(mallory.kp, d.Slice(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	control, err := attack.SpliceSlice(mallory.kp, d.Slice(1), d.Slice(0), attack.Block(own.Header(), own.Body))
	if err != nil {
		t.Fatal(err)
	}
	if o, err := core.OpenSlice(bob.kp, control, nil); err != nil || o.VerifySignature(alice.kp.Public()) != nil {
		t.Fatalf("the round's own header spliced behind bob's leaf: %v", err)
	}
	for _, kind := range []core.Mode{core.ModeFull, core.ModeGroup} {
		wire, err := attack.SpliceSlice(mallory.kp, d.Slice(1), d.Slice(0), attack.Block(relabel(toMallory.Header(), kind), toMallory.Body))
		if err != nil {
			t.Fatal(err)
		}
		o, err := core.OpenSlice(bob.kp, wire, nil)
		refused(fmt.Sprintf("alice's envelope header behind bob's leaf, kind %s", kind), o, err)
	}
}

// TestUnsignedEnvelopeRefused: eve seals to bob's certified key — which is
// public — an envelope whose header names alice as its sender and bob as
// its recipient and carries no signature, and pushes it down bob's group
// pipe in alice's name. Bob raises a SecurityAlert and no SecureMessage: a
// header without a signature opens nowhere, so nothing reaches the
// application from a sender nobody authenticated.
func TestUnsignedEnvelopeRefused(t *testing.T) {
	s := newSecureStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	bob := s.join(t, "bob", "bob-secret-pw")
	atBob := events.NewCollector(bob.Bus())
	eve, err := attack.NewRawNode(s.net, "eve-node")
	if err != nil {
		t.Fatal(err)
	}

	body := []byte("pay eve 100")
	h := attack.NewHeader(core.ModeFull, alice.PeerID(), "math", body)
	bobKey := bob.Identity().Keys.Public()
	fp, err := bobKey.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	h.To = fp[:]
	wire, err := attack.EnvelopeTo(bobKey, attack.Block(h.Bytes(), body))
	if err != nil {
		t.Fatal(err)
	}
	if err := eve.Replay(simnet.NodeID(bob.PeerID()), attack.SpoofedPipeEnvelope(alice.PeerID(), bob.PeerID(), "math", wire)); err != nil {
		t.Fatal(err)
	}
	waituntil.Must(t, 5*time.Second, func() bool {
		return len(atBob.OfType(events.SecurityAlert))+len(atBob.OfType(events.SecureMessage)) > 0
	}, "bob neither raised nor refused the unsigned envelope")
	time.Sleep(20 * time.Millisecond)
	if got := atBob.OfType(events.SecureMessage); len(got) != 0 {
		t.Fatalf("bob raised %q from %s (authenticated %q)", got[0].Data, got[0].From, got[0].Attr("authenticated"))
	}
	if got := alerts(t, atBob, 1); !strings.Contains(got[0].Attr("reason"), core.ErrNoSignature.Error()) {
		t.Fatalf("refused with %q, want %v", got[0].Attr("reason"), core.ErrNoSignature)
	}
}
