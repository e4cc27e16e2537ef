package core_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/keys"
)

type sliceParty struct {
	kp *keys.KeyPair
	id keys.PeerID
}

func newSliceParty(t *testing.T) sliceParty {
	t.Helper()
	kp, err := keys.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	id, err := keys.CBID(kp.Public())
	if err != nil {
		t.Fatal(err)
	}
	return sliceParty{kp: kp, id: id}
}

func newSliceParties(t *testing.T, n int) (sliceParty, []sliceParty, []*keys.PublicKey) {
	t.Helper()
	sender := newSliceParty(t)
	members := make([]sliceParty, n)
	pubs := make([]*keys.PublicKey, n)
	for i := range members {
		members[i] = newSliceParty(t)
		pubs[i] = members[i].kp.Public()
	}
	return sender, members, pubs
}

// TestSliceRoundTrip: every recipient opens its own slice, recovers the
// body, and can verify the single sender signature — for recipient
// counts covering the empty-proof, odd-leaf and power-of-two tree
// shapes.
func TestSliceRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		sender, members, pubs := newSliceParties(t, n)
		body := []byte("sliced round payload")
		before := sender.kp.SignCalls()
		d, err := core.SealGroupDetached(sender.kp, sender.id, "math", body, pubs)
		if err != nil {
			t.Fatal(err)
		}
		if got := sender.kp.SignCalls() - before; got != 1 {
			t.Fatalf("n=%d: sealing cost %d signatures, want 1", n, got)
		}
		slices := d.Slices()
		if len(slices) != n {
			t.Fatalf("n=%d: got %d slices", n, len(slices))
		}
		for i, m := range members {
			opened, err := core.OpenSlice(m.kp, slices[i], nil)
			if err != nil {
				t.Fatalf("n=%d recipient %d: %v", n, i, err)
			}
			if !bytes.Equal(opened.Body, body) {
				t.Fatalf("n=%d recipient %d: body mismatch", n, i)
			}
			if opened.Mode != core.ModeSlice {
				t.Fatalf("mode = %v, want ModeSlice", opened.Mode)
			}
			if opened.Sender != sender.id || opened.Group != "math" {
				t.Fatalf("n=%d recipient %d: header fields wrong", n, i)
			}
			if err := opened.VerifySignature(sender.kp.Public()); err != nil {
				t.Fatalf("n=%d recipient %d: signature: %v", n, i, err)
			}
		}
	}
}

// TestSliceRoundRelaySide: a relay holding only the full ModeGroup wire
// re-cuts it into the exact same slices the sender would produce — byte
// surgery needs no keys.
func TestSliceRoundRelaySide(t *testing.T) {
	sender, _, pubs := newSliceParties(t, 5)
	d, err := core.SealGroupDetached(sender.kp, sender.id, "math", []byte("x"), pubs)
	if err != nil {
		t.Fatal(err)
	}
	resliced, err := core.SliceRound(d.Wire())
	if err != nil {
		t.Fatal(err)
	}
	if resliced.Recipients() != 5 {
		t.Fatalf("recipients = %d, want 5", resliced.Recipients())
	}
	want, got := d.Slices(), resliced.Slices()
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("slice %d differs between sender and relay assembly", i)
		}
	}
}

// TestSliceFullWireInterop: the full ModeGroup wire is the relay's
// upload and nothing else. Re-cut by SliceRound, it opens at every member
// as that member's slice; the full wire itself opens at no entry point.
func TestSliceFullWireInterop(t *testing.T) {
	sender, members, pubs := newSliceParties(t, 3)
	body := []byte("interop")
	d, err := core.SealGroupDetached(sender.kp, sender.id, "g", body, pubs)
	if err != nil {
		t.Fatal(err)
	}
	upload := d.Wire()
	sliced, err := core.SliceRound(upload)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		if o, err := core.OpenSlice(m.kp, sliced.Slice(i), nil); err != nil || !bytes.Equal(o.Body, body) {
			t.Fatalf("member %d, slice of the upload: (%v, %v)", i, o, err)
		}
		if _, err := core.OpenSlice(m.kp, upload, nil); !errors.Is(err, core.ErrEnvelope) {
			t.Fatalf("member %d, OpenSlice(full wire) = %v, want ErrEnvelope", i, err)
		}
		if _, err := core.Open(m.kp, upload); !errors.Is(err, core.ErrEnvelope) {
			t.Fatalf("member %d, Open(full wire) = %v, want ErrEnvelope", i, err)
		}
	}
}

// TestSliceWrongRecipientRejected: a slice delivered to the wrong peer
// fails before any decryption can happen.
func TestSliceWrongRecipientRejected(t *testing.T) {
	sender, members, pubs := newSliceParties(t, 2)
	d, err := core.SealGroupDetached(sender.kp, sender.id, "g", []byte("x"), pubs)
	if err != nil {
		t.Fatal(err)
	}
	slices := d.Slices()
	if _, err := core.OpenSlice(members[1].kp, slices[0], nil); !errors.Is(err, core.ErrNotRecipient) {
		t.Fatalf("misrouted slice = %v, want ErrNotRecipient", err)
	}
	if _, err := core.OpenSlice(nil, slices[0], nil); !errors.Is(err, core.ErrNotRecipient) {
		t.Fatalf("nil key = %v, want ErrNotRecipient", err)
	}
}

// TestSliceReplayRejected: the signed single-use round nonce makes a
// replayed slice (the store-and-forward relay's new replay surface) die
// at the recipient's guard.
func TestSliceReplayRejected(t *testing.T) {
	sender, members, pubs := newSliceParties(t, 2)
	d, err := core.SealGroupDetached(sender.kp, sender.id, "g", []byte("x"), pubs)
	if err != nil {
		t.Fatal(err)
	}
	guard := core.NewReplayGuard(time.Minute, 64)
	w := d.Slices()[0]
	if _, err := core.OpenSlice(members[0].kp, w, guard); err != nil {
		t.Fatalf("first delivery: %v", err)
	}
	if _, err := core.OpenSlice(members[0].kp, w, guard); !errors.Is(err, core.ErrMessageReplayed) {
		t.Fatalf("replayed slice = %v, want ErrMessageReplayed", err)
	}
	// A fresh round from the same sender is unaffected.
	d2, err := core.SealGroupDetached(sender.kp, sender.id, "g", []byte("x"), pubs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.OpenSlice(members[0].kp, d2.Slice(0), guard); err != nil {
		t.Fatalf("fresh round after replay: %v", err)
	}
}

// TestOpenSharedGuardAdmitsOnce: the messenger handler and the task
// service reach one guard from different goroutines. However many
// deliveries of one round race — the slice the sender cut, and the one a
// relay cut again from the upload — exactly one is admitted.
func TestOpenSharedGuardAdmitsOnce(t *testing.T) {
	sender, members, pubs := newSliceParties(t, 2)
	d, err := core.SealGroupDetached(sender.kp, sender.id, "g", []byte("race"), pubs)
	if err != nil {
		t.Fatal(err)
	}
	recut, err := core.SliceRound(d.Wire())
	if err != nil {
		t.Fatal(err)
	}
	wires := [2][]byte{d.Slice(0), recut.Slice(0)}
	guard := core.NewReplayGuard(time.Minute, 64)
	const deliveries = 8
	errs := make(chan error, deliveries)
	for i := 0; i < deliveries; i++ {
		go func(wire []byte) {
			_, err := core.OpenSlice(members[0].kp, wire, guard)
			errs <- err
		}(wires[i%2])
	}
	admitted := 0
	for i := 0; i < deliveries; i++ {
		if err := <-errs; err == nil {
			admitted++
		} else if !errors.Is(err, core.ErrMessageReplayed) {
			t.Errorf("racing delivery refused with %v, want ErrMessageReplayed", err)
		}
	}
	if admitted != 1 {
		t.Fatalf("%d of %d racing deliveries admitted, want 1", admitted, deliveries)
	}
}

// TestSliceModeConfinement: Open rejects slice wires (round semantics
// need a guard-tracking surface) and OpenSlice rejects non-slice wires.
func TestSliceModeConfinement(t *testing.T) {
	sender, members, pubs := newSliceParties(t, 2)
	d, err := core.SealGroupDetached(sender.kp, sender.id, "g", []byte("x"), pubs)
	if err != nil {
		t.Fatal(err)
	}
	w := d.Slices()[0]
	if _, err := core.Open(members[0].kp, w); !errors.Is(err, core.ErrEnvelope) {
		t.Fatalf("Open(slice) = %v, want ErrEnvelope", err)
	}
	env, err := core.Seal(sender.kp, sender.id, "g", []byte("x"), members[0].kp.Public(), core.ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.OpenSlice(members[0].kp, env.Bytes(), nil); !errors.Is(err, core.ErrEnvelope) {
		t.Fatalf("OpenSlice(envelope) = %v, want ErrEnvelope", err)
	}
}

// TestSliceTruncatedWireRejected: every proper prefix of a valid slice
// wire must be rejected cleanly (no panic, no acceptance).
func TestSliceTruncatedWireRejected(t *testing.T) {
	sender, members, pubs := newSliceParties(t, 3)
	d, err := core.SealGroupDetached(sender.kp, sender.id, "g", []byte("truncate me"), pubs)
	if err != nil {
		t.Fatal(err)
	}
	w := d.Slices()[1]
	for cut := 0; cut < len(w); cut++ {
		if _, err := core.OpenSlice(members[1].kp, w[:cut], nil); err == nil {
			t.Fatalf("truncated slice (%d/%d bytes) accepted", cut, len(w))
		}
	}
}

// TestSliceWireBytesScaleLinearly pins the whole point of slicing: the
// full ModeGroup wire fanned to N recipients would cost O(N^2) bytes on
// the wire, slices cost O(N) (each slice is one wrap plus an O(log N)
// proof). At N=100 a slice must be the full wire less the 99 other
// recipients' entries, and the slice overhead over N=10 must be only the
// logarithmic proof growth.
func TestSliceWireBytesScaleLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 100 RSA keys")
	}
	body := []byte("wire size probe")
	sizes := map[int]int{} // n -> slice bytes for recipient 0
	full := map[int]int{}
	for _, n := range []int{10, 100} {
		sender, _, pubs := newSliceParties(t, n)
		d, err := core.SealGroupDetached(sender.kp, sender.id, "g", body, pubs)
		if err != nil {
			t.Fatal(err)
		}
		sizes[n] = len(d.Slices()[0])
		full[n] = len(d.Wire())
	}
	// Beside the leaf index, a proof of at most ceil(log2 100) = 7 hashes.
	if most := full[100] - 99*(32+keys.WrapSize) + 4 + 1 + 7*32; sizes[100] > most {
		t.Fatalf("slice %dB at N=100, more than the %dB of one recipient's cut of the %dB full wire", sizes[100], most, full[100])
	}
	// Growing the round 10x adds only proof hashes to a slice:
	// ceil(log2(100))-ceil(log2(10)) = 3 more 32-byte hashes.
	if grow := sizes[100] - sizes[10]; grow > 4*32 {
		t.Fatalf("slice grew %dB from N=10 to N=100, want <=%d (log-proof only)", grow, 4*32)
	}
}
