// Round-header replay negatives: the group fan-out round shares ONE
// signed header across every recipient's slice, which creates attack
// surface the unicast envelope never had — a legitimate round member holds
// a validly signed header, the plaintext and the round's content key, and
// can try to re-seal them. These tests pin the defenses (the signed slice
// tree root, the wrap bound to the round's AEAD nonce, the single-use
// round nonce) and the wire-integrity baseline (tampered key wraps).
package attack_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/simnet"
)

type roundParty struct {
	kp *keys.KeyPair
	id keys.PeerID
}

func newRoundParty(t *testing.T) roundParty {
	t.Helper()
	kp, err := keys.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	id, err := keys.CBID(kp.Public())
	if err != nil {
		t.Fatal(err)
	}
	return roundParty{kp: kp, id: id}
}

// TestRoundHeaderRetargetedRecipientSetRejected: mallory, a legitimate
// recipient of alice's round, splices the signed header onto a slice of
// a round addressed to a different recipient set (bob alone) under a
// fresh content key. Bob decrypts fine — mallory wrapped the key for him
// — but the leaf (0, bob, wrap) of a one-member round does not reach the
// signed SliceRoot over {bob, mallory}, so OpenSlice rejects the slice
// before its valid signature can vouch for anything.
func TestRoundHeaderRetargetedRecipientSetRejected(t *testing.T) {
	alice, bob, mallory := newRoundParty(t), newRoundParty(t), newRoundParty(t)
	d, err := core.SealGroupDetached(alice.kp, alice.id, "math", []byte("round secret"),
		[]*keys.PublicKey{bob.kp.Public(), mallory.kp.Public()})
	if err != nil {
		t.Fatal(err)
	}
	// Mallory opens her slice and harvests the signed header + body.
	opened, err := core.OpenSlice(mallory.kp, d.Slice(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := attack.ForgeSlice(opened.Header(), opened.Body, bob.kp.Public())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.OpenSlice(bob.kp, forged, nil); !errors.Is(err, core.ErrRoundBinding) {
		t.Fatalf("re-targeted round = %v, want ErrRoundBinding", err)
	}
}

// TestSliceResealedByInsiderRefusedByWrap: mallory, a member of alice's
// round, unwraps the round's content key from her own slice and seals the
// signed header and body again under that key with a fresh GCM nonce,
// behind bob's own leaf — his fingerprint, his wrap, his inclusion proof.
// The leaf would reach the signed SliceRoot and the signature would
// verify, but bob's wrap is bound to the nonce alice sealed under: under
// mallory's it unwraps nothing, so the forgery is not his, with a guard or
// without, and is refused before it can spend the round's single-use
// nonce — the honest slice still opens after it, once. What the nonce
// still catches is that honest slice again: a node that never saw the
// round, handed it ten minutes late by its clock, refuses it as stale,
// naming the signer.
func TestSliceResealedByInsiderRefusedByWrap(t *testing.T) {
	// bob is also a node, with a guard of its own, for the last step.
	s := newSecureStack(t)
	bobNode := s.join(t, "bob", "bob-secret-pw", core.WithReplayGuard(core.NewReplayGuard(time.Minute, 64)))
	alice, bob, mallory := newRoundParty(t), roundParty{kp: bobNode.Identity().Keys, id: bobNode.PeerID()}, newRoundParty(t)
	d, err := core.SealGroupDetached(alice.kp, alice.id, "math", []byte("round secret"),
		[]*keys.PublicKey{bob.kp.Public(), mallory.kp.Public()})
	if err != nil {
		t.Fatal(err)
	}
	toBob := d.Slice(0)
	forged, err := attack.ResealSlice(mallory.kp, d.Slice(1), toBob)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(forged, toBob) {
		t.Fatal("the re-sealed slice is the slice bob was sent: a fresh GCM nonce must make new bytes")
	}
	if _, err := core.OpenSlice(bob.kp, forged, nil); !errors.Is(err, core.ErrNotRecipient) {
		t.Fatalf("re-sealed slice without a guard = %v, want ErrNotRecipient", err)
	}
	guard := core.NewReplayGuard(time.Minute, 64)
	if _, err := core.OpenSlice(bob.kp, forged, guard); !errors.Is(err, core.ErrNotRecipient) || guard.Len() != 0 {
		t.Fatalf("re-sealed slice with a guard = %v and %d guard entries, want ErrNotRecipient and none", err, guard.Len())
	}
	if _, err := core.OpenSlice(bob.kp, toBob, guard); err != nil {
		t.Fatalf("legitimate slice after the forgery: %v", err)
	}
	if _, err := core.OpenSlice(bob.kp, forged, guard); !errors.Is(err, core.ErrNotRecipient) {
		t.Fatalf("re-sealed slice after the original = %v, want ErrNotRecipient", err)
	}

	// The honest slice, ten minutes on by the node's clock: the node's guard
	// has never seen the round, and it is stale.
	bobNode.Endpoint().SetClock(func() time.Time { return time.Now().Add(10 * time.Minute) })
	atBob := events.NewCollector(bobNode.Bus())
	raw, err := attack.NewRawNode(s.net, "attacker-node")
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.Replay(simnet.NodeID(bob.id), attack.SpoofedPipeEnvelope(mallory.id, bob.id, "math", toBob)); err != nil {
		t.Fatal(err)
	}
	e, ok := atBob.WaitFor(events.SecurityAlert, 5*time.Second)
	if !ok || e.Payload["reason"] != core.ErrMessageStale.Error() || e.From != alice.id {
		t.Fatalf("aged slice raised %+v (%v), want an alert against its signer: %v", e, ok, core.ErrMessageStale)
	}
	if got := atBob.OfType(events.SecureMessage); len(got) != 0 {
		t.Fatalf("aged slice delivered: %q", got[0].Data)
	}
}

// TestRoundTamperedKeyWrapRejected: an on-path attacker flips bits in one
// recipient's key wrap inside the round a sender uploads to the relay.
// The relay cuts slices without looking at wraps, so the damage reaches
// that recipient's slice, which must fail to open — the wrap's tag does
// not verify, and nothing is decrypted under it. Nor does any other
// slice of that upload: the signed tree root commits to every wrap, so
// the other member's path climbs from a sibling hashed over the damaged
// wrap and reaches a root the signature does not cover.
func TestRoundTamperedKeyWrapRejected(t *testing.T) {
	alice, bob, mallory := newRoundParty(t), newRoundParty(t), newRoundParty(t)
	d, err := core.SealGroupDetached(alice.kp, alice.id, "math", []byte("round secret"),
		[]*keys.PublicKey{bob.kp.Public(), mallory.kp.Public()})
	if err != nil {
		t.Fatal(err)
	}
	upload := d.Wire()
	// First wrap (bob's, wire order = recipient order) sits after the mode
	// byte, recipient count, ephemeral share and fingerprint: corrupt it.
	wrapStart := 1 + 4 + keys.ShareSize + 32
	upload[wrapStart+7] ^= 0xff
	sliced, err := core.SliceRound(upload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.OpenSlice(bob.kp, sliced.Slice(0), nil); err == nil {
		t.Fatal("tampered key wrap opened successfully")
	}
	if _, err := core.OpenSlice(mallory.kp, sliced.Slice(1), nil); !errors.Is(err, core.ErrRoundBinding) {
		t.Fatalf("the other member's slice of a tampered upload = %v, want ErrRoundBinding", err)
	}
}

// TestReplayOfEvictedWhileFreshRoundAdmittedAndCounted pins the replay
// guard's documented limit (SECURITY.md, "Freshness vs. queue TTL") and
// the counter that makes it visible. A guard is a bounded table: once
// it is full, every admit costs it the entry closest to expiry, fresh
// or not. Mallory, who kept bob's slice of alice's round, pushes it out
// of bob's guard with traffic of her own and replays it inside the
// freshness window — and it opens again. core.ReplayEvictions moves by
// exactly the entries the flood cost the guard, and not at all while the
// replay was still being refused: the operator's signal that the guard's
// effective window has dropped below the freshness window.
func TestReplayOfEvictedWhileFreshRoundAdmittedAndCounted(t *testing.T) {
	alice, bob := newRoundParty(t), newRoundParty(t)
	d, err := core.SealGroupDetached(alice.kp, alice.id, "math", []byte("round secret"),
		[]*keys.PublicKey{bob.kp.Public()})
	if err != nil {
		t.Fatal(err)
	}
	slice := d.Slice(0)
	const capacity = 8
	guard := core.NewReplayGuard(time.Minute, capacity)
	before := core.ReplayEvictions()
	if _, err := core.OpenSlice(bob.kp, slice, guard); err != nil {
		t.Fatalf("legitimate round rejected: %v", err)
	}
	// Later traffic, short of the capacity: the round stays tracked.
	now := time.Now().Add(time.Second)
	for i := 0; guard.Len() < capacity; i++ {
		if err := guard.Check([]byte{'f', byte(i)}, now); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := core.OpenSlice(bob.kp, slice, guard); !errors.Is(err, core.ErrMessageReplayed) {
		t.Fatalf("replay while tracked = %v, want ErrMessageReplayed", err)
	}
	if got := core.ReplayEvictions() - before; got != 0 {
		t.Fatalf("ReplayEvictions moved by %d with the guard not yet over capacity", got)
	}
	// One more admit evicts the entry with the least time left: the
	// round's nonce, signed a second earlier — a slice's only entry.
	if err := guard.Check([]byte{'e'}, now); err != nil {
		t.Fatal(err)
	}
	if got := core.ReplayEvictions() - before; got != 1 {
		t.Fatalf("ReplayEvictions moved by %d over one admit into a full guard, want 1", got)
	}
	if _, err := core.OpenSlice(bob.kp, slice, guard); err != nil {
		t.Fatalf("replay of an evicted-while-fresh round = %v; the guard no longer holds it and (as before this counter existed) admits it", err)
	}
}
