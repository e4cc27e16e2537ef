package core

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"

	"jxtaoverlay/internal/keys"
)

var (
	senderKP = mustKey(400)
	recvKP   = mustKey(401)
	evilKP   = mustKey(402)
)

func mustKey(seed int64) *keys.KeyPair {
	kp, err := keys.KeyPairFrom(rand.New(rand.NewSource(seed)), keys.DefaultRSABits)
	if err != nil {
		panic(err)
	}
	return kp
}

func TestSealOpenFull(t *testing.T) {
	sealed, err := Seal(senderKP, "urn:jxta:cbid-sender", "math", []byte("secret text"), recvKP.Public(), ModeFull)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	opened, err := Open(recvKP, sealed.Bytes())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if string(opened.Body) != "secret text" || opened.Group != "math" {
		t.Fatalf("opened = %+v", opened)
	}
	if err := opened.VerifySignature(senderKP.Public()); err != nil {
		t.Fatalf("VerifySignature: %v", err)
	}
	if err := opened.VerifySignature(evilKP.Public()); err == nil {
		t.Fatal("signature verified under wrong key")
	}
}

func TestOpenWrongRecipient(t *testing.T) {
	sealed, err := Seal(senderKP, "s", "g", []byte("m"), recvKP.Public(), ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(evilKP, sealed.Bytes()); err == nil {
		t.Fatal("Open with wrong key succeeded")
	}
}

func TestFullModeHidesPlaintext(t *testing.T) {
	body := []byte("the-plaintext-body-marker")
	sealed, err := Seal(senderKP, "s", "g", body, recvKP.Public(), ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sealed.Bytes(), body) {
		t.Fatal("plaintext visible in full-mode envelope")
	}
}

// TestEditedHeaderFailsSignature: a header whose signed field — here its
// sender — changed after signing opens, an envelope's as a slice's, and
// fails its signature: a recipient's lookup of the claimed sender's key
// authenticates nothing the sender did not sign.
func TestEditedHeaderFailsSignature(t *testing.T) {
	for _, m := range []Mode{ModeFull, ModeSlice} {
		wire := forgeWire(t, m, []byte("abc"), func(h *header) []byte {
			h.sender = "urn:jxta:forged"
			return reencode(h)
		})
		opened, err := openAs(m, recvKP, wire)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if opened.Sender != "urn:jxta:forged" || opened.VerifySignature(senderKP.Public()) != ErrSigInvalid {
			t.Fatalf("%s: the edited header from %q verified", m, opened.Sender)
		}
	}
}

func TestSealParameterChecks(t *testing.T) {
	if _, err := Seal(nil, "s", "g", []byte("m"), recvKP.Public(), ModeFull); err == nil {
		t.Fatal("full mode without signer succeeded")
	}
	if _, err := Seal(senderKP, "s", "g", []byte("m"), nil, ModeFull); err == nil {
		t.Fatal("full mode without recipient succeeded")
	}
	// ModeFull is the one envelope: the sign-only and encrypt-only bytes
	// of old are no mode at all.
	for _, m := range []Mode{'?', 'S', 'E', ModeSlice, ModeChannel} {
		if _, err := Seal(senderKP, "s", "g", []byte("m"), recvKP.Public(), m); err == nil {
			t.Fatalf("Seal in %s accepted", m)
		}
	}
}

func TestOpenMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":      nil,
		"short":      {byte(ModeFull)},
		"bad mode":   {'?', 1, 2, 3},
		"not an env": append([]byte{byte(ModeFull)}, []byte("garbage")...),
		"sign-only":  append([]byte{'S'}, []byte("<NotSecureMessage></NotSecureMessage>")...),
		"encrypt":    {'E', 1, 2, 3},
	}
	for name, wire := range cases {
		if _, err := Open(recvKP, wire); err == nil {
			t.Errorf("Open(%s) succeeded", name)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeFull.String() != "sign+encrypt" || Mode('S').String() != "mode(S)" || Mode('E').String() != "mode(E)" {
		t.Fatal("mode strings changed")
	}
}

func TestPropertySealOpenRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 10}
	prop := func(body []byte, groupRaw []byte) bool {
		// Group names are hex-encoded: XML cannot carry arbitrary bytes in
		// text nodes, and real group names are identifiers.
		group := hex.EncodeToString(groupRaw)
		sealed, err := Seal(senderKP, "urn:jxta:cbid-s", group, body, recvKP.Public(), ModeFull)
		if err != nil {
			return false
		}
		opened, err := Open(recvKP, sealed.Bytes())
		if err != nil {
			return false
		}
		return bytes.Equal(opened.Body, body) &&
			opened.Group == group &&
			opened.VerifySignature(senderKP.Public()) == nil
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
