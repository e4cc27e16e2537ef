package endpoint

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzParseMessage fuzzes the bare element codec (Marshal/ParseMessage),
// which shares its element-section decoder with the frame decoder
// FuzzParseFrame covers. The seeds are element sections the overlay
// carries, the degenerate ones, and the count prefix that once sized an
// allocation before it was checked (committed under testdata/fuzz).
// Properties: it never panics; what it allocates is bounded by the
// input's size; every Data is a view into the input; and a message that
// parses re-marshals to the same bytes.
func FuzzParseMessage(f *testing.F) {
	f.Add(NewMessage().Add("sec:env", bytes.Repeat([]byte{0xA5}, 700)).AddString("group", "g").Marshal())
	f.Add(NewMessage().AddString("op", "lookupPipe").AddString("peer", "urn:jxta:cbid-b").
		Add("adv", []byte("<PipeAdvertisement><Id>p1</Id></PipeAdvertisement>")).Marshal())
	f.Add(NewMessage().AddString("relay:to", "urn:jxta:cbid-c").Add("msg:body", NewMessage().AddString("k", "v").Marshal()).Marshal())
	f.Add(NewMessage().Marshal())
	f.Add(NewMessage().Add("", nil).Add("a", nil).Add("a", []byte{0}).Marshal())
	// A count prefix claiming the maximum message with nothing behind it.
	f.Add([]byte("JXM2\x10\x00"))

	// The bound and its slack are FuzzParseFrame's.
	const (
		allocPerByte = 8
		allocFixed   = 32 << 10
	)
	var before, after runtime.MemStats
	f.Fuzz(func(t *testing.T, data []byte) {
		runtime.ReadMemStats(&before)
		m, err := ParseMessage(data)
		runtime.ReadMemStats(&after)
		if (m == nil) == (err == nil) {
			t.Fatalf("ParseMessage returned (%v, %v): exactly one must be set", m, err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(allocFixed+allocPerByte*len(data)); got > limit {
			t.Fatalf("parsing %d bytes allocated %d bytes, limit %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		for _, e := range m.Elements {
			if !within(e.Data, data) {
				t.Fatalf("element %q: Data is not a view into the input", e.Name)
			}
		}
		if wire := m.Marshal(); !bytes.Equal(wire, data) {
			t.Fatalf("re-marshal differs from the input it was parsed from:\n got %x\nwant %x", wire, data)
		}
	})
}
