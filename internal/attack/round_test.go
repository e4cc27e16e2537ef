// Round-header replay negatives: the group fan-out round shares ONE
// signed header across every recipient, which creates attack surface the
// unicast envelope never had — a legitimate round member holds a validly
// signed header plus the plaintext and can try to re-encrypt them. These
// tests pin the two defenses (signed recipient-set binding, single-use
// round nonce) and the wire-integrity baseline (tampered key wraps).
package attack_test

import (
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
// recipient of alice's round, splices the signed header onto a wire
// addressed to a different recipient set (bob alone). Bob decrypts
// fine — mallory wrapped the fresh key for him — but the signed
// Recipients digest still names {bob, mallory}, so OpenGroup rejects
// the round before its valid signature can vouch for anything.
func TestRoundHeaderRetargetedRecipientSetRejected(t *testing.T) {
	alice, bob, mallory := newRoundParty(t), newRoundParty(t), newRoundParty(t)
	sealed, err := core.SealGroup(alice.kp, alice.id, "math", []byte("round secret"),
		[]*keys.PublicKey{bob.kp.Public(), mallory.kp.Public()})
	if err != nil {
		t.Fatal(err)
	}
	// Mallory opens her copy and harvests the signed header + body.
	opened, err := core.OpenGroup(mallory.kp, sealed.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := attack.ForgeRound(opened.HeaderXML(), opened.Body,
		[]*keys.PublicKey{bob.kp.Public()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.OpenGroup(bob.kp, forged, nil); !errors.Is(err, core.ErrRoundBinding) {
		t.Fatalf("re-targeted round = %v, want ErrRoundBinding", err)
	}
}

// TestRoundHeaderStaleNonceReuseRejected: mallory re-encrypts the round
// to its ORIGINAL recipient set, so the recipient-set binding, the body
// digest and the header signature all still hold — only the single-use
// round nonce distinguishes the forgery from the round bob already
// accepted. The receive-side guard must reject the reuse.
func TestRoundHeaderStaleNonceReuseRejected(t *testing.T) {
	// bob is also a node, with a guard of its own, for the last step.
	s := newSecureStack(t)
	bobNode := s.join(t, "bob", "bob-secret-pw", core.WithReplayGuard(core.NewReplayGuard(time.Minute, 64)))
	alice, bob, mallory := newRoundParty(t), roundParty{kp: bobNode.Identity().Keys, id: bobNode.PeerID()}, newRoundParty(t)
	recipients := []*keys.PublicKey{bob.kp.Public(), mallory.kp.Public()}
	sealed, err := core.SealGroup(alice.kp, alice.id, "math", []byte("round secret"), recipients)
	if err != nil {
		t.Fatal(err)
	}
	guard := core.NewReplayGuard(time.Minute, 64)
	if _, err := core.OpenGroup(bob.kp, sealed.Bytes(), guard); err != nil {
		t.Fatalf("legitimate round rejected: %v", err)
	}
	opened, err := core.OpenGroup(mallory.kp, sealed.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := attack.ForgeRound(opened.HeaderXML(), opened.Body, recipients)
	if err != nil {
		t.Fatal(err)
	}
	// The forged wire differs byte-for-byte from the original (fresh
	// content key and GCM nonce), so only the signed round nonce can
	// identify it as a replay.
	if _, err := core.OpenGroup(bob.kp, forged, guard); !errors.Is(err, core.ErrMessageReplayed) {
		t.Fatalf("nonce-reusing round = %v, want ErrMessageReplayed", err)
	}
	// And even without prior delivery, the forgery cannot outlive the
	// freshness window: the node's guard has never seen the round, and ten
	// minutes on by the node's clock it is stale.
	bobNode.Endpoint().SetClock(func() time.Time { return time.Now().Add(10 * time.Minute) })
	atBob := events.NewCollector(bobNode.Bus())
	raw, err := attack.NewRawNode(s.net, "attacker-node")
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.Replay(simnet.NodeID(bob.id), attack.SpoofedPipeEnvelope(mallory.id, bob.id, "math", forged)); err != nil {
		t.Fatal(err)
	}
	e, ok := atBob.WaitFor(events.SecurityAlert, 5*time.Second)
	if !ok || e.Payload["reason"] != core.ErrMessageStale.Error() || e.From != alice.id {
		t.Fatalf("aged round raised %+v (%v), want an alert against its signer: %v", e, ok, core.ErrMessageStale)
	}
	if got := atBob.OfType(events.SecureMessage); len(got) != 0 {
		t.Fatalf("aged round delivered: %q", got[0].Data)
	}
}

// TestRoundTamperedKeyWrapRejected: an on-path attacker flips bits in a
// recipient's key wrap. The recipient must fail to open the round —
// OAEP unwrapping (or the AEAD under a corrupted key) cannot succeed.
func TestRoundTamperedKeyWrapRejected(t *testing.T) {
	alice, bob, mallory := newRoundParty(t), newRoundParty(t), newRoundParty(t)
	sealed, err := core.SealGroup(alice.kp, alice.id, "math", []byte("round secret"),
		[]*keys.PublicKey{bob.kp.Public(), mallory.kp.Public()})
	if err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), sealed.Bytes()...)
	// First wrap entry (bob's, wire order = recipient order) sits after
	// the mode byte, wrap count and fingerprint: corrupt its payload.
	wrapStart := 1 + 4 + 32 + 4
	wire[wrapStart+7] ^= 0xff
	if _, err := core.OpenGroup(bob.kp, wire, nil); err == nil {
		t.Fatal("tampered key wrap opened successfully")
	}
	// The untouched recipient still opens — corruption is contained to
	// the targeted wrap.
	if _, err := core.OpenGroup(mallory.kp, wire, nil); err != nil {
		t.Fatalf("untampered recipient rejected: %v", err)
	}
}

// TestReplayOfEvictedWhileFreshRoundAdmittedAndCounted pins the replay
// guard's documented limit (SECURITY.md, "Freshness vs. queue TTL") and
// the counter that makes it visible. A guard is a bounded table: once
// it is full, every admit costs it the entry closest to expiry, fresh
// or not. Mallory, who kept alice's round, pushes it out of bob's guard
// with traffic of her own and replays it inside the freshness window —
// and it opens again. core.ReplayEvictions moves by exactly the entries
// the flood cost the guard, and not at all while the replay was still
// being refused: the operator's signal that the guard's effective
// window has dropped below the freshness window.
func TestReplayOfEvictedWhileFreshRoundAdmittedAndCounted(t *testing.T) {
	alice, bob := newRoundParty(t), newRoundParty(t)
	sealed, err := core.SealGroup(alice.kp, alice.id, "math", []byte("round secret"),
		[]*keys.PublicKey{bob.kp.Public()})
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 8
	guard := core.NewReplayGuard(time.Minute, capacity)
	before := core.ReplayEvictions()
	if _, err := core.OpenGroup(bob.kp, sealed.Bytes(), guard); err != nil {
		t.Fatalf("legitimate round rejected: %v", err)
	}
	// Later traffic, short of the capacity: the round stays tracked.
	now := time.Now().Add(time.Second)
	for i := 0; guard.Len() < capacity; i++ {
		if err := guard.Check([]byte{'f', byte(i)}, now); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := core.OpenGroup(bob.kp, sealed.Bytes(), guard); !errors.Is(err, core.ErrMessageReplayed) {
		t.Fatalf("replay while tracked = %v, want ErrMessageReplayed", err)
	}
	if got := core.ReplayEvictions() - before; got != 0 {
		t.Fatalf("ReplayEvictions moved by %d with the guard not yet over capacity", got)
	}
	// Two more admits evict the two entries with the least time left:
	// the round's wire digest and its nonce, signed a second earlier.
	for i := 0; i < 2; i++ {
		if err := guard.Check([]byte{'e', byte(i)}, now); err != nil {
			t.Fatal(err)
		}
	}
	if got := core.ReplayEvictions() - before; got != 2 {
		t.Fatalf("ReplayEvictions moved by %d over two admits into a full guard, want 2", got)
	}
	if _, err := core.OpenGroup(bob.kp, sealed.Bytes(), guard); err != nil {
		t.Fatalf("replay of an evicted-while-fresh round = %v; the guard no longer holds it and (as before this counter existed) admits it", err)
	}
}
