package endpoint

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"jxtaoverlay/internal/keys"
)

// FuzzParseFrame feeds arbitrary bytes to the frame decoder every packet
// a stranger sends passes through, as the endpoint does: a relay frame is
// cut first and the frame inside it decoded. The seeds are the frames the
// overlay really exchanges (a secure unicast on a pipe, a broker request,
// its response, a relay frame around a unicast), the degenerate frames,
// and the count prefix that once sized an allocation before it was
// checked (committed under testdata/fuzz as count-prefix-6-bytes-224KiB,
// the name of the 6-byte element-codec input it was found as, so plain
// `go test` replays it). Properties: it never panics; what it allocates
// is bounded by the input's size, so no count or length a stranger writes
// can drive a make; every returned field and Data is a view into the
// input, never a copy and never outside it; and a frame that parses is
// rebuilt, prefix and elements, byte for byte from what was read — by
// NewFrame, and by BuildFrame with the last element's data left to the
// caller's Fill, as a secure send seals its wire into the frame.
func FuzzParseFrame(f *testing.F) {
	secure := NewFrame(Route{Src: "urn:jxta:cbid-a", Service: "jxta:pipe:", Param: "p1"},
		Element{"sec:env", bytes.Repeat([]byte{0xA5}, 700)}, Element{"group", []byte("g")})
	f.Add(secure)
	request := NewFrame(Route{Src: "urn:jxta:cbid-b", Service: "jxta:broker", Corr: CorrRequest, CorrID: []byte("00112233445566778899aabb")},
		Element{"op", []byte("lookupPipe")}, Element{"peer", []byte("urn:jxta:cbid-b")},
		Element{"adv", []byte("<PipeAdvertisement><Id>p1</Id></PipeAdvertisement>")})
	f.Add(request)
	f.Add(NewFrame(Route{Src: "urn:jxta:broker", Service: svcResponse, Corr: CorrResponse, CorrID: []byte("00112233445566778899aabb")}, Element{"ok", []byte("1")}))
	f.Add(relayFrame("urn:jxta:cbid-c", secure))
	f.Add(NewFrame(Route{}))
	f.Add(NewFrame(Route{Src: "a"}, Element{"", nil}, Element{"a", nil}, Element{"a", []byte{0}}))
	// A count prefix claiming the maximum message with nothing behind it.
	f.Add(append(bytes.Clone(NewFrame(Route{})[:11]), 0x10, 0x00))

	// What one parse may allocate: the Message and its element slice,
	// 40 bytes per element of at least 6 input bytes each, plus whatever
	// names fall outside the interned vocabulary (never longer than the
	// input). The fixed part is slack for what the fuzzing worker itself
	// allocates meanwhile (TotalAlloc is process-wide; 1 KiB tripped on
	// 6 KB of it within seconds). The unchecked count sized 224 KiB from
	// a 6-byte frame.
	const (
		allocPerByte = 8
		allocFixed   = 32 << 10
	)
	var before, after runtime.MemStats
	f.Fuzz(func(t *testing.T, data []byte) {
		runtime.ReadMemStats(&before)
		frame := data
		to, inner, relayed := cutRelay(data)
		if relayed {
			frame = inner
		}
		fr, err := ParseFrame(frame)
		runtime.ReadMemStats(&after)
		if (fr.Msg == nil) == (err == nil) {
			t.Fatalf("ParseFrame returned (%+v, %v): exactly one must be set", fr, err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(allocFixed+allocPerByte*len(data)); got > limit {
			t.Fatalf("parsing %d bytes allocated %d bytes, limit %d", len(data), got, limit)
		}
		if relayed && (!within(to, data) || !within(inner, data)) {
			t.Fatal("a relay frame's target or inner frame is not a view into the input")
		}
		if err != nil {
			return
		}
		for _, v := range [][]byte{fr.Src, fr.Service, fr.CorrID} {
			if !within(v, frame) {
				t.Fatalf("prefix field %q is not a view into the frame", v)
			}
		}
		for _, e := range fr.Msg.Elements {
			if !within(e.Data, frame) {
				t.Fatalf("element %q: Data is not a view into the frame", e.Name)
			}
		}
		r := Route{Src: keys.PeerID(fr.Src), Service: string(fr.Service), Corr: fr.Corr, CorrID: fr.CorrID}
		if wire := NewFrame(r, fr.Msg.Elements...); !bytes.Equal(wire, frame) {
			t.Fatalf("rebuilt frame differs from the one it was parsed from:\n got %x\nwant %x", wire, frame)
		}
		if len(fr.Msg.Elements) == 0 {
			return
		}
		// Again with the last element's data written by the caller, as a
		// secure layer seals its wire into the frame: the builder holds no
		// copy of it to write.
		elems := slices.Clone(fr.Msg.Elements)
		last := len(elems) - 1
		sealed := elems[last].Data
		elems[last].Data = nil
		room := &Room{Index: last, Size: len(sealed), Fill: func(dst []byte) ([]byte, error) { return append(dst, sealed...), nil }}
		if wire, err := BuildFrame(r, room, elems...); err != nil || !bytes.Equal(wire, frame) {
			t.Fatalf("frame rebuilt with a room differs from the one it was parsed from (%v):\n got %x\nwant %x", err, wire, frame)
		}
	})
}

// within reports whether view lies inside buf's memory (an empty view
// has no memory to lie anywhere).
func within(view, buf []byte) bool {
	if len(view) == 0 {
		return true
	}
	if len(buf) == 0 {
		return false
	}
	lo, hi := uintptr(unsafe.Pointer(unsafe.SliceData(buf))), uintptr(unsafe.Pointer(unsafe.SliceData(buf)))+uintptr(len(buf))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(view)))
	return p >= lo && p+uintptr(len(view)) <= hi
}
