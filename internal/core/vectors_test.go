package core

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"jxtaoverlay/internal/keys"
)

// headerVector is one signed header as appendHeader wrote it: its bytes in
// hex and the fields they decode to.
type headerVector struct {
	Hex                                                   string
	Kind                                                  Mode
	Sender                                                keys.PeerID
	Group                                                 string
	At                                                    int64
	Digest, To, Nonce, Root, Channel, Share, Resends, Sig []byte
}

func (v *headerVector) header() header {
	return header{kind: v.Kind, sender: v.Sender, group: v.Group, at: v.At, digest: v.Digest, to: v.To,
		nonce: v.Nonce, root: v.Root, channel: v.Channel, share: v.Share, resends: v.Resends, sig: v.Sig}
}

// roundVector is a round of three recipients as the relay receives it
// (Wire, the full ModeGroup wire) and the slice it cuts for recipient 1.
// The slice carries the round's ephemeral share, nonce and ciphertext.
type roundVector struct {
	Wire struct {
		Hex                        string
		Eph, Entries, GCMNonce, CT []byte
	}
	Slice struct {
		Hex          string
		N            int
		Index        uint32
		Entry, Proof []byte
	}
}

// readVectors reads testdata/vectors/name into v.
func readVectors(tb testing.TB, name string, v any) {
	tb.Helper()
	raw, err := os.ReadFile("testdata/vectors/" + name)
	if err != nil {
		tb.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		tb.Fatal(err)
	}
}

// headerVectors reads testdata/vectors/header.json: one ModeFull header for
// each combination of the optional fields, signed with the fixture key.
func headerVectors(tb testing.TB) []headerVector {
	var vs []headerVector
	readVectors(tb, "header.json", &vs)
	return vs
}

// roundVectors reads testdata/vectors/round.json.
func roundVectors(tb testing.TB) roundVector {
	var v roundVector
	readVectors(tb, "round.json", &v)
	return v
}

func unhex(tb testing.TB, s string) []byte {
	tb.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestHeaderVectors: every header vector parses, whole, to its fields, its
// signature verifies under the fixture key, and its fields signed again
// with that key (RSA PKCS #1 v1.5 is deterministic) are its bytes.
func TestHeaderVectors(t *testing.T) {
	pem, err := os.ReadFile("testdata/fuzz_open_key.pem")
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := keys.ParseKeyPairPEM(pem)
	if err != nil {
		t.Fatal(err)
	}
	combos := map[[4]bool]bool{}
	for i, v := range headerVectors(t) {
		raw := unhex(t, v.Hex)
		want := v.header()
		h, body, ok := parseHeader(raw)
		if !ok || len(body) != 0 || !reflect.DeepEqual(h, want) {
			t.Fatalf("vector %d: parsed %+v (ok %v, %d bytes behind it), want %+v", i, h, ok, len(body), want)
		}
		if err := verifyHeader(fixture.Public(), raw, h.sig); err != nil {
			t.Fatalf("vector %d: %v", i, err)
		}
		again, err := appendHeader(nil, &want, fixture)
		if err != nil || !bytes.Equal(again, raw) {
			t.Fatalf("vector %d: signed again as\n%x\nwant\n%x (%v)", i, again, raw, err)
		}
		combos[[4]bool{h.to != nil, h.nonce != nil, h.channel != nil, h.resends != nil}] = true
	}
	if len(combos) != 16 {
		t.Fatalf("the vectors cover %d combinations of the optional fields, want 16", len(combos))
	}
}

// TestRoundVectors: the round parses to its fields and assembles again to
// its bytes; its slice parses to its fields, is what the round cuts for
// that recipient, and its proof reaches the round's tree root.
func TestRoundVectors(t *testing.T) {
	v := roundVectors(t)
	wire := unhex(t, v.Wire.Hex)
	d, err := SliceRound(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.eph[:], v.Wire.Eph) || !bytes.Equal(d.entries, v.Wire.Entries) ||
		!bytes.Equal(d.gcmNonce, v.Wire.GCMNonce) || !bytes.Equal(d.ct, v.Wire.CT) {
		t.Fatal("the round parses to other fields than its vector's")
	}
	if !bytes.Equal(d.Wire(), wire) {
		t.Fatalf("the round assembles again as\n%x\nwant\n%x", d.Wire(), wire)
	}
	slice := unhex(t, v.Slice.Hex)
	if Mode(slice[0]) != ModeSlice {
		t.Fatalf("the slice has mode %d", slice[0])
	}
	ps, err := parseSliceWire(slice[1:])
	if err != nil {
		t.Fatal(err)
	}
	if ps.n != v.Slice.N || ps.index != v.Slice.Index || !bytes.Equal(ps.entry, v.Slice.Entry) || !bytes.Equal(ps.proof, v.Slice.Proof) ||
		!bytes.Equal(ps.eph, v.Wire.Eph) || !bytes.Equal(ps.gcmNonce, v.Wire.GCMNonce) || !bytes.Equal(ps.ct, v.Wire.CT) {
		t.Fatal("the slice parses to other fields than its vector's")
	}
	if !bytes.Equal(d.Slice(int(ps.index)), slice) {
		t.Fatalf("the round cuts recipient %d another slice", ps.index)
	}
	levels := d.sliceLevels()
	if root, ok := verifySliceProof(&ps); !ok || root != levels[len(levels)-1][0] {
		t.Fatal("the slice's proof does not reach the round's root")
	}
}
