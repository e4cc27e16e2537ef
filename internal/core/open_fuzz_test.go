package core_test

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/keys"
)

// fuzzOpenKey is the fixed recipient key of FuzzOpen: a committed,
// test-only RSA-1024 key, so an input the fuzzer saves under
// testdata/fuzz/FuzzOpen still decrypts on the next machine.
func fuzzOpenKey(tb testing.TB) *keys.KeyPair {
	tb.Helper()
	pem, err := os.ReadFile("testdata/fuzz_open_key.pem")
	if err != nil {
		tb.Fatal(err)
	}
	kp, err := keys.ParseKeyPairPEM(pem)
	if err != nil {
		tb.Fatal(err)
	}
	return kp
}

// FuzzOpen feeds arbitrary bytes to the one open pipeline, accepting
// every wire form a recipient opens (core.OpenAnyForm), under a fixed
// recipient key. The seeds are one valid wire per mode — a session
// channel's frame, accept and refusal among them — an envelope whose
// header carries no signature, which the pipeline refuses whatever else is
// right about it, and that block in the clear behind the retired sign-only
// mode byte; plus the forged wires a
// malicious round member or relay can build around a validly signed
// header (a slice re-targeted, re-sealed, re-wrapped, or carrying an
// ephemeral share of small order), two slices of rounds sealed under one
// round key and the first carrying the second's nonce — and the relay's
// upload, a full round, which opens nowhere (SliceRound's parse of it is
// FuzzSliceRound's).
// Properties: it never panics; it returns exactly one of an Opened and an
// error; what it allocates is bounded by the input's size, so no count or
// length prefix a stranger writes can drive a make; and a wire that opens
// opens again to the same Opened (nothing in the path is consumed).
func FuzzOpen(f *testing.F) {
	own := fuzzOpenKey(f)
	other, err := keys.NewKeyPair()
	if err != nil {
		f.Fatal(err)
	}
	sender, err := keys.NewKeyPair()
	if err != nil {
		f.Fatal(err)
	}
	body := []byte("fuzz seed body")
	sealed, err := core.Seal(sender, "urn:jxta:sender", "g", body, own.Public(), core.ModeFull)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed.Bytes())
	unsigned := attack.NewHeader(core.ModeFull, "urn:jxta:sender", "g", body)
	fp, err := own.Public().Fingerprint()
	if err != nil {
		f.Fatal(err)
	}
	unsigned.To = fp[:]
	wire, err := attack.EnvelopeTo(own.Public(), attack.Block(unsigned.Bytes(), body))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
	f.Add(append([]byte{'S'}, attack.Block(unsigned.Bytes(), body)...))
	round, err := core.SealGroupDetached(sender, "urn:jxta:sender", "g", body,
		[]*keys.PublicKey{other.Public(), own.Public(), sender.Public()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(round.Slice(1))
	opened, err := core.OpenSlice(own, round.Slice(1), nil)
	if err != nil {
		f.Fatal(err)
	}
	forged, err := attack.ForgeSlice(opened.Header(), opened.Body, own.Public())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(forged)
	resealed, err := attack.ResealSlice(sender, round.Slice(2), round.Slice(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(resealed)
	rewrapped, err := attack.RewrapSlice(sender, round.Slice(2), round.Slice(1), own.Public())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rewrapped)
	lowOrder := round.Slice(1)
	clear(lowOrder[1+4+4 : 1+4+4+keys.ShareSize]) // u = 0
	f.Add(lowOrder)
	// Two rounds under one round key, as a client seals them within its
	// key's lifetime: one ephemeral share, two nonces; and the first's slice
	// carrying the second's nonce.
	held, err := sender.NewRoundKey()
	if err != nil {
		f.Fatal(err)
	}
	var sameE [2][]byte
	for i := range sameE {
		d, err := core.SealRoundUnder(held, sender, "urn:jxta:sender", "g", body, []*keys.PublicKey{other.Public(), own.Public()})
		if err != nil {
			f.Fatal(err)
		}
		sameE[i] = d.Slice(1)
		f.Add(sameE[i])
	}
	spliced := bytes.Clone(sameE[0])
	first, err := attack.CutSlice(spliced)
	if err != nil {
		f.Fatal(err)
	}
	second, err := attack.CutSlice(sameE[1])
	if err != nil {
		f.Fatal(err)
	}
	copy(first.Nonce(), second.Nonce())
	f.Add(spliced)
	// The wires of a session channel: a frame (of the one channel
	// core.OpenAnyForm holds), an accept, a refusal.
	frame, accept, refusal := core.TableChannelWires(body)
	f.Add(frame)
	f.Add(accept)
	f.Add(refusal)
	// A count prefix claiming the maximum round with nothing behind it.
	f.Add([]byte{byte(core.ModeSlice), 0, 0, 0x10, 0, 0, 0, 0, 0})
	// The relay's upload, whole and as a bare maximal count prefix.
	f.Add(round.Wire())
	f.Add([]byte{byte(core.ModeGroup), 0, 0, 0x10, 0})

	// What one open may allocate: a few copies of the input (the AEAD
	// plaintext, the parsed header, digests) plus the fixed cost of the key
	// unwrap, an X25519. A maximal count prefix sized before it was
	// checked would be 224 KiB.
	const (
		allocPerByte = 8
		allocFixed   = 32 << 10
	)
	var before, after runtime.MemStats
	f.Fuzz(func(t *testing.T, wire []byte) {
		runtime.ReadMemStats(&before)
		o, err := core.OpenAnyForm(own, wire)
		runtime.ReadMemStats(&after)
		if (o == nil) == (err == nil) {
			t.Fatalf("OpenAnyForm returned (%v, %v): exactly one must be set", o, err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(allocFixed+allocPerByte*len(wire)); got > limit {
			t.Fatalf("opening %d bytes allocated %d bytes, limit %d", len(wire), got, limit)
		}
		if err != nil {
			return
		}
		again, err := core.OpenAnyForm(own, wire)
		if err != nil {
			t.Fatalf("a wire that opened does not open again: %v", err)
		}
		if o.Mode != again.Mode || o.Sender != again.Sender || o.Group != again.Group ||
			!o.SentAt.Equal(again.SentAt) ||
			!bytes.Equal(o.Body, again.Body) || !bytes.Equal(o.Nonce, again.Nonce) ||
			!bytes.Equal(o.Header(), again.Header()) {
			t.Fatalf("re-open differs:\n first %+v\nsecond %+v", o, again)
		}
	})
}
