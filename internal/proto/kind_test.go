package proto_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
)

// TestKindBytesPinned: a kind's byte is the first byte of every signed form
// written under it — requests, credentials, audit checkpoints — so no kind
// is ever renumbered. Byte 3, a retired kind's, is nobody's: a request
// starting with it is refused as every kind, and as a credential (package
// audit's TestCheckpointOfAnotherKindRefused refuses it as a checkpoint).
func TestKindBytesPinned(t *testing.T) {
	for kind, want := range map[proto.RequestKind]byte{
		proto.KindLogin: 1, proto.KindHeartbeat: 2, proto.KindQuery: 4,
		proto.KindAnswer: 5, proto.KindCredential: 6, proto.KindCheckpoint: 7,
	} {
		if byte(kind) != want {
			t.Errorf("kind %d has byte %d, want %d", kind, byte(kind), want)
		}
	}

	const retired = proto.RequestKind(3)
	kp, err := keys.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	id, err := keys.CBID(kp.Public())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if _, err := proto.AppendRequest(nil, kp, id, retired, now, proto.NewNonce(), []byte("field")); !errors.Is(err, proto.ErrRequestMalformed) {
		t.Errorf("a request of kind 3 was signed: %v", err)
	}
	heartbeat, err := proto.AppendRequest(nil, kp, id, proto.KindHeartbeat, now, proto.NewNonce(), []byte("ls-1"), make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	raw := bytes.Clone(heartbeat)
	raw[0] = byte(retired)
	byKey := func(*proto.Request) (*keys.PublicKey, error) { return kp.Public(), nil }
	for _, kind := range []proto.RequestKind{retired, proto.KindLogin, proto.KindHeartbeat, proto.KindQuery, proto.KindAnswer} {
		if _, err := proto.NewRequestGuard(id).Open(raw, kind, now, byKey); !errors.Is(err, proto.ErrRequestMalformed) {
			t.Errorf("byte 3 opened as a request of kind %d: %v", kind, err)
		}
	}

	c, err := cred.IssueAt(now, kp, id, id, "broker", cred.RoleBroker, kp.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	credRaw, err := c.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	credRaw = bytes.Clone(credRaw)
	credRaw[0] = byte(retired)
	if _, err := cred.Parse(credRaw); !errors.Is(err, cred.ErrMalformed) {
		t.Errorf("byte 3 parsed as a credential: %v", err)
	}
}
