package core

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
)

// FuzzParseHeader feeds arbitrary bytes to parseHeader, the decoder of the
// signed header every envelope, slice and channel offer carries, once
// their AEAD has opened. The seeds are headers of both kinds with every
// combination of optional fields, signed and unsigned (the codec carries an
// empty signature; the open path refuses it), the header of a real slice,
// the vectors (testdata/vectors) and the lengths a stranger can lie with.
//
// Properties: it never panics; every field it accepts, and the body it
// returns, is a view inside the input; an accepted header re-encodes byte
// for byte through appendHeader, the body behind it; and what a parse
// allocates stays under a fixed bound, whatever the input's size (it
// allocates nothing; the bound is slack for the fuzzing worker).
func FuzzParseHeader(f *testing.F) {
	body := []byte("fuzz seed body")
	digest := sha256.Sum256(body)
	for _, kind := range []Mode{ModeFull, ModeGroup} {
		for flags := 0; flags < 16; flags++ {
			for _, signer := range []*keys.KeyPair{senderKP, nil} {
				h := header{kind: kind, sender: "urn:jxta:sender", group: "g", at: time.Now().UnixNano(), digest: digest[:]}
				if flags&flagTo != 0 {
					h.to = bytes.Repeat([]byte{1}, 32)
				}
				if flags&flagRound != 0 {
					h.nonce, h.root = bytes.Repeat([]byte{2}, roundNonceSize), bytes.Repeat([]byte{3}, 32)
				}
				if flags&flagOffer != 0 {
					h.channel, h.share = bytes.Repeat([]byte{4}, channelIDSize), bytes.Repeat([]byte{5}, keys.ShareSize)
				}
				if flags&flagResends != 0 {
					h.resends = bytes.Repeat([]byte{6}, framePrefix-1)
				}
				hdr, err := appendHeader(nil, &h, signer)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(append(hdr, body...))
			}
		}
	}
	d, err := SealGroupDetached(senderKP, "urn:jxta:sender", "g", body, []*keys.PublicKey{recvKP.Public()})
	if err != nil {
		f.Fatal(err)
	}
	o, err := OpenSlice(recvKP, d.Slice(0), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(bytes.Clone(o.Header()), o.Body...))
	for _, v := range headerVectors(f) {
		f.Add(unhex(f, v.Hex))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(ModeFull)})
	f.Add([]byte{byte(ModeFull), 0xff, 0xff})                                                  // a sender longer than what follows
	f.Add(append([]byte{byte(ModeFull), 0, 0, 0, 0}, make([]byte, 41)...))                     // no signature length
	f.Add(append(append([]byte{byte(ModeFull), 0, 0, 0, 0}, make([]byte, 40)...), 0xf0, 0, 0)) // flags naming no field

	var before, after runtime.MemStats
	const allocFixed = 32 << 10
	f.Fuzz(func(t *testing.T, data []byte) {
		runtime.ReadMemStats(&before)
		h, rest, ok := parseHeader(data)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > allocFixed {
			t.Fatalf("parsing %d bytes allocated %d bytes, limit %d", len(data), got, allocFixed)
		}
		if !ok {
			return
		}
		for _, v := range [][]byte{endpoint.ReadOnlyBytes(string(h.sender)), endpoint.ReadOnlyBytes(h.group), h.digest, h.to, h.nonce, h.root, h.channel, h.share, h.resends, h.sig, rest} {
			if !within(v, data) {
				t.Fatalf("field %x is not a view into the input", v)
			}
		}
		again, err := appendHeader(nil, &h, nil)
		if err != nil {
			t.Fatalf("an accepted header does not re-encode: %v", err)
		}
		if !bytes.Equal(append(again, rest...), data) {
			t.Fatalf("re-encoded header differs from the one it was parsed from:\n got %x\nwant %x", again, data[:len(data)-len(rest)])
		}
	})
}

// within reports whether view lies inside buf's memory (an empty view
// has no memory to lie anywhere).
func within(view, buf []byte) bool {
	if len(view) == 0 {
		return true
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(view)))
	return len(buf) > 0 && p >= lo && p+uintptr(len(view)) <= lo+uintptr(len(buf))
}
