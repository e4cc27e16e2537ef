// Header splicing across forms. Every message form but a channel's
// carries one signed header in one binary layout, and what binds it to its
// recipient differs by form: a ModeFull envelope's To, a slice's tree
// root, nothing at all for a sign-only envelope, which anyone may read.
// A recipient holding a validly signed header of one form — an envelope
// sent to it, its cut of a round — can try to pass it off as another form
// to a peer it was not sent to. The kind the header was sealed under is
// the first byte its signature covers, and each form opens only its own.
package attack_test

import (
	"bytes"
	"fmt"
	"testing"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/keys"
)

// TestHeaderSplicedAcrossFormsRefused: mallory holds alice's signed
// ModeFull envelope to her and her cut of alice's round, and tries on
// bob, who was sent neither: the envelope header repackaged as a
// sign-only wire, the round header inside an envelope, the envelope
// header behind bob's leaf of another of alice's rounds — each with the
// kind it was signed under and with the kind the new form wants written
// over it. None opens at bob as a message alice signed.
func TestHeaderSplicedAcrossFormsRefused(t *testing.T) {
	alice, bob, mallory, carol := newRoundParty(t), newRoundParty(t), newRoundParty(t), newRoundParty(t)
	body := []byte("for mallory's eyes")
	refused := func(name string, opened *core.Opened, err error) {
		t.Helper()
		if err == nil && opened.Signed() && opened.VerifySignature(alice.kp.Public()) == nil {
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

	// A ModeFull header repackaged as ModeSign: a sign-only wire names no
	// recipient for bob to check.
	for _, kind := range []core.Mode{core.ModeFull, core.ModeSign} {
		wire := append([]byte{byte(core.ModeSign)}, attack.Block(relabel(toMallory.Header(), kind), toMallory.Body)...)
		o, err := core.Open(bob.kp, wire)
		refused(fmt.Sprintf("alice's envelope to mallory as a sign-only wire, kind %s", kind), o, err)
	}

	// Her round header inside an envelope, sign-only and encrypted to bob.
	for _, kind := range []core.Mode{core.ModeGroup, core.ModeSign, core.ModeFull} {
		block := attack.Block(relabel(cut.Header(), kind), cut.Body)
		o, err := core.Open(bob.kp, append([]byte{byte(core.ModeSign)}, block...))
		refused(fmt.Sprintf("alice's round header in a sign-only envelope, kind %s", kind), o, err)
		env, err := bob.kp.Public().Encrypt(block)
		if err != nil {
			t.Fatal(err)
		}
		o, err = core.Open(bob.kp, append([]byte{byte(core.ModeFull)}, env.Bytes()...))
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
