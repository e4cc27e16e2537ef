// Hostile-input negatives for the ingest parser. Every inbound wire —
// advertisements, envelope headers, credentials — now funnels through
// xmldoc.ParseCanonical, whose grammar excludes the classic XML attack
// surface by construction: no DTDs or entity definitions (so no
// entity-expansion bombs), no processing instructions or comments, and
// bounded nesting. These tests act as the adversary feeding such
// documents to the parser directly and through a secure envelope, and
// pin that rejection costs work proportional to the scanned prefix —
// not to what the document would expand to.
package attack_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/xmldoc"
)

// entityBomb is a billion-laughs document: ~10 levels of nested entity
// definitions that a DTD-expanding parser would blow up to gigabytes.
func entityBomb() []byte {
	var b strings.Builder
	b.WriteString("<!DOCTYPE lolz [<!ENTITY lol \"lol\">")
	for i := 1; i <= 9; i++ {
		fmt.Fprintf(&b, "<!ENTITY lol%d \"", i)
		for j := 0; j < 10; j++ {
			fmt.Fprintf(&b, "&lol%d;", i-1)
		}
		b.WriteString("\">")
	}
	b.WriteString("]><PipeAdvertisement><Id>&lol9;</Id></PipeAdvertisement>")
	return []byte(b.String())
}

// TestEntityBombRejectedAtFirstByte: the expansion bomb dies on the
// '<!' of its DOCTYPE — before a single entity is defined, let alone
// expanded. The work bound is the point: rejection happens at the
// scanned prefix, so the attacker cannot buy CPU or memory with a
// small wire.
func TestEntityBombRejectedAtFirstByte(t *testing.T) {
	bomb := entityBomb()
	start := time.Now()
	if _, err := xmldoc.ParseCanonical(bomb); !errors.Is(err, xmldoc.ErrCanonicalSyntax) {
		t.Fatalf("entity bomb not rejected as non-canonical: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("rejection took %v — expansion work performed", elapsed)
	}
}

// TestDeeplyNestedDocumentRejected: a 100k-level nesting chain (which
// would recurse a tree-building parser into the ground) is cut off at
// the fixed depth bound with work linear in the scanned prefix, open
// tags only — no matching close tags are ever needed to reject.
func TestDeeplyNestedDocumentRejected(t *testing.T) {
	deep := []byte(strings.Repeat("<A>", 100_000))
	start := time.Now()
	if _, err := xmldoc.ParseCanonical(deep); !errors.Is(err, xmldoc.ErrCanonicalSyntax) {
		t.Fatalf("deep nesting not rejected: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("rejection took %v — unbounded recursion work", elapsed)
	}
}

// TestHostileHeaderInsideEnvelopeRejected: an attacker who controls the
// bytes inside an envelope (any peer can seal one to bob's certified key)
// cannot smuggle DTD/PI/comment markup through the header parse —
// core.Open rejects the envelope before any field of the hostile header is
// interpreted.
func TestHostileHeaderInsideEnvelopeRejected(t *testing.T) {
	bob := newRoundParty(t)
	hostile := [][]byte{
		entityBomb(),
		[]byte(`<?xml version="1.0"?><SecureMessage></SecureMessage>`),
		[]byte("<SecureMessage><!-- smuggled --><Sender>x</Sender></SecureMessage>"),
		[]byte("<SecureMessage><Sender>&nbsp;</Sender></SecureMessage>"),
	}
	for _, header := range hostile {
		// The block is a u32 header length, the header bytes, an empty body.
		wire, err := attack.EnvelopeTo(bob.kp.Public(), append(binary.BigEndian.AppendUint32(nil, uint32(len(header))), header...))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Open(bob.kp, wire); !errors.Is(err, core.ErrEnvelope) {
			t.Fatalf("hostile header %.40q... not rejected: %v", header, err)
		}
	}
}

// TestCanonicalHeadersStillAccepted is the positive control for the
// hardening: a legitimately sealed envelope — whose header is canonical
// by construction — still opens and verifies.
func TestCanonicalHeadersStillAccepted(t *testing.T) {
	alice, bob := newRoundParty(t), newRoundParty(t)
	sealed, err := core.Seal(alice.kp, alice.id, "math", []byte("hi"), bob.kp.Public(), core.ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := core.Open(bob.kp, sealed.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := opened.VerifySignature(alice.kp.Public()); err != nil {
		t.Fatal(err)
	}
	if _, err := keys.CBID(alice.kp.Public()); err != nil {
		t.Fatal(err)
	}
}
