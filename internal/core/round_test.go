package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"jxtaoverlay/internal/keys"
)

// TestSealGroupOpenGroupRoundtrip: a sealed round opens at each of its
// recipients as that recipient's slice — the one way a round reaches a
// recipient — with the signed header's fields, the round nonce and the
// single sender signature intact. (The full round wire opens nowhere:
// TestSliceFullWireInterop, TestFullRoundPushedToMemberRefused.)
func TestSealGroupOpenGroupRoundtrip(t *testing.T) {
	body := []byte("round payload")
	d, err := SealGroupDetached(senderKP, "urn:jxta:cbid-sender", "math", body,
		[]*keys.PublicKey{recvKP.Public(), evilKP.Public()})
	if err != nil {
		t.Fatalf("SealGroupDetached: %v", err)
	}
	for i, kp := range []*keys.KeyPair{recvKP, evilKP} {
		opened, err := OpenSlice(kp, d.Slice(i), nil)
		if err != nil {
			t.Fatalf("OpenSlice: %v", err)
		}
		if !bytes.Equal(opened.Body, body) || opened.Group != "math" || opened.Sender != "urn:jxta:cbid-sender" {
			t.Fatalf("opened = %+v", opened)
		}
		if len(opened.Nonce) != roundNonceSize {
			t.Fatalf("nonce length = %d", len(opened.Nonce))
		}
		if err := opened.VerifySignature(senderKP.Public()); err != nil {
			t.Fatalf("VerifySignature: %v", err)
		}
		if err := opened.VerifySignature(evilKP.Public()); err == nil {
			t.Fatal("signature verified under wrong key")
		}
	}
	// The generic Open must NOT accept round wires: surfaces without round
	// replay tracking (secure tasks) opt out by construction.
	if _, err := Open(recvKP, d.Slice(0)); !errors.Is(err, ErrEnvelope) {
		t.Fatalf("Open on a slice = %v, want ErrEnvelope", err)
	}
}

func TestSealGroupOneSignaturePerRound(t *testing.T) {
	recipients := make([]*keys.PublicKey, 0, 10)
	for i := 0; i < 10; i++ {
		recipients = append(recipients, recvKP.Public())
	}
	before := senderKP.SignCalls()
	if _, err := SealGroupDetached(senderKP, "s", "g", []byte("m"), recipients); err != nil {
		t.Fatal(err)
	}
	if got := senderKP.SignCalls() - before; got != 1 {
		t.Fatalf("round of 10 recipients cost %d signatures, want exactly 1", got)
	}
}

// TestOpenGroupTamperedWrapRejected: a wrap damaged in the upload reaches
// its recipient's slice, which must not open.
func TestOpenGroupTamperedWrapRejected(t *testing.T) {
	d, err := SealGroupDetached(senderKP, "s", "g", []byte("m"), []*keys.PublicKey{recvKP.Public()})
	if err != nil {
		t.Fatal(err)
	}
	wire := d.Wire()
	// Flip a byte in the middle of the (only) wrap: offset = mode byte +
	// recipient count + ephemeral share + fingerprint + a bit.
	wire[1+4+keys.ShareSize+32+10] ^= 0xff
	sliced, err := SliceRound(wire)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSlice(recvKP, sliced.Slice(0), nil); err == nil {
		t.Fatal("tampered key wrap accepted")
	}
}

// TestOpenGroupTamperedCiphertextRejected: the ciphertext is shared by
// every slice of a round, so a byte damaged in the upload is damaged in
// each slice cut from it, and none opens.
func TestOpenGroupTamperedCiphertextRejected(t *testing.T) {
	d, err := SealGroupDetached(senderKP, "s", "g", []byte("m"), []*keys.PublicKey{recvKP.Public(), evilKP.Public()})
	if err != nil {
		t.Fatal(err)
	}
	wire := d.Wire()
	wire[len(wire)-1] ^= 0xff
	sliced, err := SliceRound(wire)
	if err != nil {
		t.Fatal(err)
	}
	for i, kp := range []*keys.KeyPair{recvKP, evilKP} {
		if _, err := OpenSlice(kp, sliced.Slice(i), nil); !errors.Is(err, ErrEnvelope) {
			t.Fatalf("slice %d of a tampered ciphertext = %v, want ErrEnvelope", i, err)
		}
	}
}

// retargetWire rebuilds a round wire keeping only the wraps whose index
// is listed — the upload a malicious party would forge by splicing a
// signed round onto a smaller recipient set.
func retargetWire(t *testing.T, wire []byte, keep ...int) []byte {
	t.Helper()
	rw, err := parseRoundWire(wire[1:])
	if err != nil {
		t.Fatal(err)
	}
	out := []byte{byte(ModeGroup)}
	out = binary.BigEndian.AppendUint32(out, uint32(len(keep)))
	out = append(out, rw.eph[:]...)
	for _, i := range keep {
		out = append(out, rw.entry(i)...)
	}
	out = append(out, rw.gcmNonce...)
	return append(out, rw.ct...)
}

func TestOpenGroupRecipientSetBinding(t *testing.T) {
	// A round sealed to {recv, evil}, stripped down to {recv} and sliced:
	// the ciphertext still decrypts for recv, but the slice's one-leaf
	// tree no longer reaches the signed SliceRoot.
	d, err := SealGroupDetached(senderKP, "s", "g", []byte("m"),
		[]*keys.PublicKey{recvKP.Public(), evilKP.Public()})
	if err != nil {
		t.Fatal(err)
	}
	sliced, err := SliceRound(retargetWire(t, d.Wire(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSlice(recvKP, sliced.Slice(0), nil); !errors.Is(err, ErrRoundBinding) {
		t.Fatalf("re-targeted round open = %v, want ErrRoundBinding", err)
	}
}

func TestReplayGuardCheckRound(t *testing.T) {
	g := NewReplayGuard(time.Minute, 16)
	base := time.Now()
	nonce := []byte("0123456789abcdef")
	if err := g.CheckRound("peerA", nonce, base); err != nil {
		t.Fatalf("fresh round nonce: %v", err)
	}
	if err := g.CheckRound("peerA", nonce, base); !errors.Is(err, ErrMessageReplayed) {
		t.Fatalf("reused nonce = %v, want ErrMessageReplayed", err)
	}
	// Same nonce, different sender: independent.
	if err := g.CheckRound("peerB", nonce, base); err != nil {
		t.Fatalf("other sender, same nonce: %v", err)
	}
	// Outside the freshness window: stale regardless of novelty.
	if err := g.CheckRound("peerA", []byte("fedcba9876543210"), base.Add(-2*time.Minute)); !errors.Is(err, ErrMessageStale) {
		t.Fatalf("stale round = %v, want ErrMessageStale", err)
	}
}

// TestRoundKeyNonceBindsWrap: the rounds a client wraps under its one
// round key share its ephemeral share E, and each opens; a slice of one
// carrying the other's AEAD nonce unwraps nothing (ErrNotRecipient): each
// wrap is bound to its own round's nonce.
func TestRoundKeyNonceBindsWrap(t *testing.T) {
	s := &SecureClient{kp: senderKP}
	now := time.Now()
	eph, err := s.roundKeyAt(now)
	if err != nil {
		t.Fatal(err)
	}
	var rounds [2]*DetachedRound
	for i := range rounds {
		if rounds[i], err = sealRound(senderKP, "urn:jxta:sender", "g", []byte("one E"),
			[]*keys.PublicKey{recvKP.Public(), evilKP.Public()}, eph, now); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSlice(recvKP, rounds[i].Slice(0), nil); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if rounds[0].eph != rounds[1].eph || bytes.Equal(rounds[0].gcmNonce, rounds[1].gcmNonce) {
		t.Fatal("two rounds under one round key: want one ephemeral share and two nonces")
	}
	wire := rounds[0].Slice(0)
	copy(wire[len(wire)-len(rounds[0].ct)-keys.AEADNonceSize:], rounds[1].gcmNonce)
	if _, err := OpenSlice(recvKP, wire, nil); !errors.Is(err, ErrNotRecipient) {
		t.Fatalf("a slice carrying another round's nonce under the same E = %v, want ErrNotRecipient", err)
	}
}
