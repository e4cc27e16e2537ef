package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"jxtaoverlay/internal/keys"
)

func TestSealGroupOpenGroupRoundtrip(t *testing.T) {
	body := []byte("round payload")
	sealed, err := SealGroup(senderKP, "urn:jxta:cbid-sender", "math", body,
		[]*keys.PublicKey{recvKP.Public(), evilKP.Public()})
	if err != nil {
		t.Fatalf("SealGroup: %v", err)
	}
	if sealed.Mode != ModeGroup {
		t.Fatalf("mode = %v", sealed.Mode)
	}
	// Every recipient opens the SAME wire bytes.
	for _, kp := range []*keys.KeyPair{recvKP, evilKP} {
		opened, err := OpenGroup(kp, sealed.Bytes(), nil)
		if err != nil {
			t.Fatalf("OpenGroup: %v", err)
		}
		if !bytes.Equal(opened.Body, body) || opened.Group != "math" || opened.Sender != "urn:jxta:cbid-sender" {
			t.Fatalf("opened = %+v", opened)
		}
		if len(opened.Nonce) != roundNonceSize {
			t.Fatalf("nonce length = %d", len(opened.Nonce))
		}
		if !opened.Signed() {
			t.Fatal("round not signed")
		}
		if err := opened.VerifySignature(senderKP.Public()); err != nil {
			t.Fatalf("VerifySignature: %v", err)
		}
		if err := opened.VerifySignature(evilKP.Public()); err == nil {
			t.Fatal("signature verified under wrong key")
		}
	}
	// The generic Open must NOT accept group wires: surfaces without
	// round replay tracking (secure tasks) opt out by construction.
	if _, err := Open(recvKP, sealed.Bytes()); !errors.Is(err, ErrEnvelope) {
		t.Fatalf("Open on group wire = %v, want ErrEnvelope", err)
	}
}

func TestSealGroupOneSignaturePerRound(t *testing.T) {
	recipients := make([]*keys.PublicKey, 0, 10)
	for i := 0; i < 10; i++ {
		recipients = append(recipients, recvKP.Public())
	}
	before := senderKP.SignCalls()
	if _, err := SealGroup(senderKP, "s", "g", []byte("m"), recipients); err != nil {
		t.Fatal(err)
	}
	if got := senderKP.SignCalls() - before; got != 1 {
		t.Fatalf("round of 10 recipients cost %d signatures, want exactly 1", got)
	}
}

func TestOpenGroupNotRecipient(t *testing.T) {
	sealed, err := SealGroup(senderKP, "s", "g", []byte("m"), []*keys.PublicKey{recvKP.Public()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenGroup(evilKP, sealed.Bytes(), nil); !errors.Is(err, ErrNotRecipient) {
		t.Fatalf("non-recipient open = %v, want ErrNotRecipient", err)
	}
}

func TestOpenGroupTamperedWrapRejected(t *testing.T) {
	sealed, err := SealGroup(senderKP, "s", "g", []byte("m"), []*keys.PublicKey{recvKP.Public()})
	if err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), sealed.Bytes()...)
	// Flip a byte in the middle of the (only) wrapped key: offset = mode
	// byte + wrap count + fingerprint + wrap length prefix + a bit.
	wire[1+4+32+4+10] ^= 0xff
	if _, err := OpenGroup(recvKP, wire, nil); err == nil {
		t.Fatal("tampered key wrap accepted")
	}
}

func TestOpenGroupTamperedCiphertextRejected(t *testing.T) {
	sealed, err := SealGroup(senderKP, "s", "g", []byte("m"), []*keys.PublicKey{recvKP.Public()})
	if err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), sealed.Bytes()...)
	wire[len(wire)-1] ^= 0xff
	if _, err := OpenGroup(recvKP, wire, nil); !errors.Is(err, ErrEnvelope) {
		t.Fatalf("tampered ciphertext open = %v, want ErrEnvelope", err)
	}
}

// retargetWire rebuilds a round wire keeping only the wraps whose index
// is listed — the wire a malicious party would forge by splicing a
// signed round onto a smaller recipient set.
func retargetWire(t *testing.T, wire []byte, keep ...int) []byte {
	t.Helper()
	rw, err := parseRoundWire(wire[1:])
	if err != nil {
		t.Fatal(err)
	}
	out := []byte{byte(ModeGroup)}
	out = binary.BigEndian.AppendUint32(out, uint32(len(keep)))
	for _, i := range keep {
		out = append(out, rw.fps[i][:]...)
		out = binary.BigEndian.AppendUint32(out, uint32(len(rw.wraps[i])))
		out = append(out, rw.wraps[i]...)
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(rw.gcmNonce)))
	out = append(out, rw.gcmNonce...)
	return append(out, rw.ct...)
}

func TestOpenGroupRecipientSetBinding(t *testing.T) {
	// A round sealed to {recv, evil}, then stripped down to {recv}: the
	// ciphertext still decrypts for recv, but the signed recipient-set
	// digest no longer matches the wire's wraps.
	sealed, err := SealGroup(senderKP, "s", "g", []byte("m"),
		[]*keys.PublicKey{recvKP.Public(), evilKP.Public()})
	if err != nil {
		t.Fatal(err)
	}
	forged := retargetWire(t, sealed.Bytes(), 0)
	if _, err := OpenGroup(recvKP, forged, nil); !errors.Is(err, ErrRoundBinding) {
		t.Fatalf("re-targeted round open = %v, want ErrRoundBinding", err)
	}
}

func TestOpenGroupNonceGuard(t *testing.T) {
	guard := NewReplayGuard(time.Minute, 16)
	sealed, err := SealGroup(senderKP, "s", "g", []byte("m"), []*keys.PublicKey{recvKP.Public()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenGroup(recvKP, sealed.Bytes(), guard); err != nil {
		t.Fatalf("first open: %v", err)
	}
	if _, err := OpenGroup(recvKP, sealed.Bytes(), guard); !errors.Is(err, ErrMessageReplayed) {
		t.Fatalf("nonce reuse = %v, want ErrMessageReplayed", err)
	}
	// A fresh round from the same sender is unaffected.
	sealed2, err := SealGroup(senderKP, "s", "g", []byte("m2"), []*keys.PublicKey{recvKP.Public()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenGroup(recvKP, sealed2.Bytes(), guard); err != nil {
		t.Fatalf("fresh round after replay: %v", err)
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
