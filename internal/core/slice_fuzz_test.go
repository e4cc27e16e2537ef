package core

import (
	"bytes"
	"runtime"
	"testing"

	"jxtaoverlay/internal/keys"
)

// FuzzSliceRound feeds arbitrary bytes to SliceRound, the decoder every
// relayRound upload passes through at the broker (parseRoundWire behind
// it). A full round is no wire a recipient opens, so FuzzOpen never
// reaches this parser; the relay cuts whatever it accepts into slices
// without a key, and each slice is pushed to a member. The seeds are
// uploads of one, three and five recipients, and a count prefix claiming
// the maximum round with nothing behind it, then with an ephemeral share
// and nothing behind that.
// Properties: it never panics; it returns exactly one of a round and an
// error; what it allocates is bounded by the input's size, so no count
// or length prefix a stranger writes can drive a make; and every slice of
// an accepted round parses back as that recipient's leaf — index i, the
// round's ephemeral share, its i-th fingerprint and wrap, the shared
// nonce and ciphertext — whose proof reaches the one root of the round's
// tree; and what a relay names without cutting is what it cuts — slice
// i is PartSize(i) bytes, and AppendPart appends those bytes.
func FuzzSliceRound(f *testing.F) {
	for _, n := range []int{1, 3, 5} {
		recipients := make([]*keys.PublicKey, n)
		for i := range recipients {
			recipients[i] = []*keys.PublicKey{recvKP.Public(), evilKP.Public()}[i%2]
		}
		d, err := SealGroupDetached(senderKP, "urn:jxta:sender", "g", []byte("fuzz seed body"), recipients)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(d.Wire())
	}
	f.Add([]byte{byte(ModeGroup), 0, 0, 0x10, 0})
	share, _ := recvKP.Public().AgreementShare()
	f.Add(append([]byte{byte(ModeGroup), 0, 0, 0x10, 0}, share[:]...))

	// What one parse may allocate: the round, and nothing per recipient —
	// the entries stay a view of the input. The fixed part is slack for
	// what the fuzzing worker itself allocates meanwhile (TotalAlloc is
	// process-wide).
	const (
		allocPerByte = 4
		allocFixed   = 32 << 10
	)
	var before, after runtime.MemStats
	f.Fuzz(func(t *testing.T, wire []byte) {
		runtime.ReadMemStats(&before)
		d, err := SliceRound(wire)
		runtime.ReadMemStats(&after)
		if (d == nil) == (err == nil) {
			t.Fatalf("SliceRound returned (%v, %v): exactly one must be set", d, err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(allocFixed+allocPerByte*len(wire)); got > limit {
			t.Fatalf("parsing %d bytes allocated %d bytes, limit %d", len(wire), got, limit)
		}
		if err != nil {
			return
		}
		var root *[32]byte
		for i := 0; i < d.Recipients(); i++ {
			w := d.Slice(i)
			if len(w) != d.PartSize(i) || !bytes.Equal(d.AppendPart(nil, i), w) {
				t.Fatalf("slice %d is %d bytes, PartSize says %d, or AppendPart cuts other bytes", i, len(w), d.PartSize(i))
			}
			if Mode(w[0]) != ModeSlice {
				t.Fatalf("slice %d has mode %q", i, w[0])
			}
			ps, err := parseSliceWire(w[1:])
			if err != nil {
				t.Fatalf("slice %d of an accepted round does not parse: %v", i, err)
			}
			if ps.n != d.Recipients() || ps.index != uint32(i) || !bytes.Equal(ps.eph, d.eph[:]) || !bytes.Equal(ps.entry, d.entry(i)) ||
				!bytes.Equal(ps.gcmNonce, d.gcmNonce) || !bytes.Equal(ps.ct, d.ct) {
				t.Fatalf("slice %d parses back as leaf %d of %d, not the round's", i, ps.index, ps.n)
			}
			r, ok := verifySliceProof(&ps)
			if !ok || (root != nil && r != *root) {
				t.Fatalf("slice %d's proof does not reach the round's root", i)
			}
			root = &r
		}
	})
}
