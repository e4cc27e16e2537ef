package endpoint

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"
)

// FuzzParseMessage feeds arbitrary bytes to the frame decoder every
// packet a stranger sends passes through. The seeds are the frames the
// overlay really exchanges (a secure unicast push, a broker request, a
// relay wrapper around an inner frame), the degenerate frames, and the
// count prefix that once sized an allocation before it was checked
// (committed under testdata/fuzz as well, so plain `go test` replays
// it). Properties: it never panics; what it allocates is bounded by the
// input's size, so no count or length a stranger writes can drive a
// make; a frame that parses re-marshals to the same bytes and parses
// again to the same message; and every returned Data is a view into the
// input, never a copy and never outside it.
func FuzzParseMessage(f *testing.F) {
	secure := NewMessage().
		Add("sec:env", bytes.Repeat([]byte{0xA5}, 700)).
		AddString("group", "g")
	secure.Set(elemSrc, []byte("urn:jxta:cbid-a")).Set(elemDst, []byte("urn:jxta:cbid-b")).Set(elemSvc, []byte("jxta:pipe:p1"))
	f.Add(secure.Marshal())
	request := NewMessage().AddString("op", "lookupPipe").AddString("peer", "urn:jxta:cbid-b").
		Add("adv", []byte("<PipeAdvertisement><Id>p1</Id></PipeAdvertisement>"))
	request.Set(elemReqID, []byte("00112233445566778899aabb"))
	f.Add(request.Marshal())
	f.Add(NewMessage().AddString("jxta:relay:to", "urn:jxta:cbid-c").Add(relayPayload, secure.Marshal()).Marshal())
	f.Add(NewMessage().Marshal())
	f.Add(NewMessage().Add("", nil).Add("a", nil).Add("a", []byte{0}).Marshal())
	// A count prefix claiming the maximum message with nothing behind it.
	f.Add([]byte("JXM2\x10\x00"))

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
	f.Fuzz(func(t *testing.T, frame []byte) {
		runtime.ReadMemStats(&before)
		m, err := ParseMessage(frame)
		runtime.ReadMemStats(&after)
		if (m == nil) == (err == nil) {
			t.Fatalf("ParseMessage returned (%v, %v): exactly one must be set", m, err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(allocFixed+allocPerByte*len(frame)); got > limit {
			t.Fatalf("parsing %d bytes allocated %d bytes, limit %d", len(frame), got, limit)
		}
		if err != nil {
			return
		}
		for _, e := range m.Elements {
			if !within(e.Data, frame) {
				t.Fatalf("element %q: Data is not a view into the frame", e.Name)
			}
		}
		wire := m.Marshal()
		if !bytes.Equal(wire, frame) {
			t.Fatalf("re-marshal differs from the frame it was parsed from:\n got %x\nwant %x", wire, frame)
		}
		again, err := ParseMessage(wire)
		if err != nil {
			t.Fatalf("a frame that parsed does not parse again: %v", err)
		}
		if len(again.Elements) != len(m.Elements) {
			t.Fatalf("re-parse has %d elements, first parse %d", len(again.Elements), len(m.Elements))
		}
		for i, e := range m.Elements {
			if a := again.Elements[i]; a.Name != e.Name || !bytes.Equal(a.Data, e.Data) {
				t.Fatalf("element %d: re-parse %+v, first parse %+v", i, a, e)
			}
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
