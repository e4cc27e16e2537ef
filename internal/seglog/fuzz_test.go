package seglog

import (
	"bytes"
	"testing"
)

// FuzzFrame pins the frame decoder under arbitrary input, beneath the
// two client fuzzers (FuzzWALDecode, FuzzAuditDecode) that cover the
// bodies:
//
//  1. no crash, and nothing allocated from a length field — the body
//     returned aliases the input and is within the client's bounds;
//  2. bijection — any frame the decoder accepts re-frames to the
//     identical bytes.
func FuzzFrame(f *testing.F) {
	fz := Format{MinBody: 2, MaxBody: 64}
	one := frame(nil, []byte("a body"))
	f.Add(one)
	f.Add(frame(one[:len(one):len(one)], []byte("and another")))
	f.Add(one[:len(one)/2])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		body, n, err := fz.Decode(data)
		if err != nil {
			return
		}
		if n != HeaderSize+len(body) || n > len(data) {
			t.Fatalf("accepted frame claims %d bytes for a %d-byte body in %d of input", n, len(body), len(data))
		}
		if len(body) < int(fz.MinBody) || len(body) > int(fz.MaxBody) {
			t.Fatalf("accepted a %d-byte body outside [%d, %d]", len(body), fz.MinBody, fz.MaxBody)
		}
		if &body[0] != &data[HeaderSize] {
			t.Fatal("accepted body does not alias the input")
		}
		if re := frame(nil, body); !bytes.Equal(re, data[:n]) {
			t.Fatalf("decode/encode not a bijection:\n in  %x\n out %x", data[:n], re)
		}
	})
}
