// Store-and-forward relay negatives: once queued slices sit at a broker
// for offline recipients, the relay itself becomes the adversary the
// round format must resist. It holds every recipient's wire for as long
// as the queue TTL allows, so it can try to re-target, re-cut, replay
// after a drain, or corrupt what it stores. These tests pin the two
// defenses carried INSIDE the payload — the signed slice Merkle binding
// and the single-use round nonce — plus clean rejection of truncation.
package attack_test

import (
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/relay"
)

// TestSliceRetargetedToNonRecipientRejected: a round insider (mallory)
// opened her slice legitimately and colludes with the relay, handing it
// the validly signed header and plaintext. The relay re-encrypts and
// cuts a slice for eve — whom the sender never addressed. Eve decrypts
// fine (the wrap is genuinely hers), but the leaf (0, eve, wrap) cannot
// reach the signed SliceRoot: ErrRoundBinding, before the header's
// valid signature can vouch for anything.
func TestSliceRetargetedToNonRecipientRejected(t *testing.T) {
	alice, bob, mallory, eve := newRoundParty(t), newRoundParty(t), newRoundParty(t), newRoundParty(t)
	d, err := core.SealGroupDetached(alice.kp, alice.id, "math", []byte("queued secret"),
		[]*keys.PublicKey{bob.kp.Public(), mallory.kp.Public()})
	if err != nil {
		t.Fatal(err)
	}
	opened, err := core.OpenSlice(mallory.kp, d.Slices()[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := attack.ForgeSlice(opened.Header(), opened.Body, eve.kp.Public())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.OpenSlice(eve.kp, forged, nil); !errors.Is(err, core.ErrRoundBinding) {
		t.Fatalf("re-targeted slice = %v, want ErrRoundBinding", err)
	}
}

// TestSliceReindexedByRelayRejected: a relay needs NO insider to attempt
// reorder forgery — it can re-cut a queued slice claiming a different
// leaf position, or transplant another recipient's inclusion proof. The
// recipient still decrypts (its wrap is untouched), so only the index-
// committing Merkle leaf stands between the forgery and acceptance.
func TestSliceReindexedByRelayRejected(t *testing.T) {
	alice := newRoundParty(t)
	members := make([]roundParty, 3)
	pubs := make([]*keys.PublicKey, 3)
	for i := range members {
		members[i] = newRoundParty(t)
		pubs[i] = members[i].kp.Public()
	}
	d, err := core.SealGroupDetached(alice.kp, alice.id, "math", []byte("queued secret"), pubs)
	if err != nil {
		t.Fatal(err)
	}
	slices := d.Slices()

	// Rewrite slice 0's leaf index in place (u32 after mode byte + count).
	reindexed := append([]byte(nil), slices[0]...)
	binary.BigEndian.PutUint32(reindexed[5:9], 1)
	if _, err := core.OpenSlice(members[0].kp, reindexed, nil); !errors.Is(err, core.ErrRoundBinding) {
		t.Fatalf("re-indexed slice = %v, want ErrRoundBinding", err)
	}

	// Transplant slice 1's proof hashes into slice 0 (same length: both
	// carry ceil(log2(3))-ish sibling paths of equal depth here).
	proofAt := func(w []byte) (start, end int) {
		leaf, err := attack.CutSlice(w)
		if err != nil {
			t.Fatal(err)
		}
		// The hashes follow the proof length, which follows the wrap.
		return 1 + 4 + 4 + keys.ShareSize + 32 + keys.WrapSize + 1, len(leaf.Head)
	}
	s0, e0 := proofAt(slices[0])
	s1, e1 := proofAt(slices[1])
	if e0-s0 != e1-s1 {
		t.Fatalf("test setup: proof lengths differ (%d vs %d)", e0-s0, e1-s1)
	}
	spliced := append([]byte(nil), slices[0]...)
	copy(spliced[s0:e0], slices[1][s1:e1])
	if _, err := core.OpenSlice(members[0].kp, spliced, nil); !errors.Is(err, core.ErrRoundBinding) {
		t.Fatalf("proof-spliced slice = %v, want ErrRoundBinding", err)
	}
}

// TestSliceReplayAfterFlushRejected: the drain-then-replay attack. A
// slice queued for offline bob is flushed to him at login and accepted;
// a compromised relay that kept the bytes re-submits them. The slice is
// byte-identical and carries a valid signature — only the signed
// single-use round nonce, already spent at the first drain, stops the
// second delivery.
func TestSliceReplayAfterFlushRejected(t *testing.T) {
	alice, bob := newRoundParty(t), newRoundParty(t)
	d, err := core.SealGroupDetached(alice.kp, alice.id, "math", []byte("flush me"),
		[]*keys.PublicKey{bob.kp.Public()})
	if err != nil {
		t.Fatal(err)
	}
	wire := d.Slices()[0]

	// Bob's receive pipeline: nonce-tracking guard in front of OpenSlice.
	guard := core.NewReplayGuard(time.Minute, 64)
	var online atomic.Bool
	drained := make(chan []byte, 4)
	r, err := relay.New(relay.Config{}, func(keys.PeerID) bool { return online.Load() },
		func(it relay.Item) error {
			drained <- it.Payload
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Queued while bob is offline, drained when he returns.
	if r.Submit(relay.Item{To: bob.id, Payload: wire}) != relay.SubmitQueued {
		t.Fatal("offline submit not queued")
	}
	online.Store(true)
	r.Flush(bob.id)
	var delivered []byte
	select {
	case delivered = <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("queued slice never drained")
	}
	if _, err := core.OpenSlice(bob.kp, delivered, guard); err != nil {
		t.Fatalf("flushed slice rejected: %v", err)
	}
	// The relay kept the bytes and replays them after the drain.
	if _, err := core.OpenSlice(bob.kp, wire, guard); !errors.Is(err, core.ErrMessageReplayed) {
		t.Fatalf("replayed drained slice = %v, want ErrMessageReplayed", err)
	}
}

// TestSliceTruncatedByRelayRejected: a relay that corrupts what it
// stores (or a queue that truncates on overflow-adjacent bugs) must not
// crash the recipient or slip a partial wire past it. Boundary cuts
// target each wire section; the core suite separately checks every
// prefix.
func TestSliceTruncatedByRelayRejected(t *testing.T) {
	alice, bob, carol := newRoundParty(t), newRoundParty(t), newRoundParty(t)
	d, err := core.SealGroupDetached(alice.kp, alice.id, "math", []byte("truncate me"),
		[]*keys.PublicKey{bob.kp.Public(), carol.kp.Public()})
	if err != nil {
		t.Fatal(err)
	}
	wire := d.Slices()[0]
	for _, cut := range []int{0, 1, 5, 9, 41, 45, len(wire) / 2, len(wire) - 1} {
		if _, err := core.OpenSlice(bob.kp, wire[:cut], nil); err == nil {
			t.Fatalf("truncated slice (%d/%d bytes) accepted", cut, len(wire))
		}
	}
}
