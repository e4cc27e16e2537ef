package proto

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"unsafe"

	"jxtaoverlay/internal/endpoint"
)

// pushSections reads the record sections of the broker's slice pushes that
// core's testdata/vectors/push.json pins, whole frames as the broker
// builds them.
func pushSections(tb testing.TB) [][]byte {
	tb.Helper()
	raw, err := os.ReadFile("../core/testdata/vectors/push.json")
	if err != nil {
		tb.Fatal(err)
	}
	var vs []struct{ Hex string }
	if err := json.Unmarshal(raw, &vs); err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, v := range vs {
		b, err := hex.DecodeString(v.Hex)
		if err != nil {
			tb.Fatal(err)
		}
		f, err := endpoint.ParseFrame(b)
		if err != nil {
			tb.Fatal(err)
		}
		section, ok := f.Msg.Get(ElemSlices)
		if !ok {
			tb.Fatal("a push vector carries no record section")
		}
		out = append(out, section)
	}
	return out
}

// appendSliceRecord appends rec whole, as a broker writes it.
func appendSliceRecord(dst []byte, rec SliceRecord) []byte {
	return append(AppendSliceHead(dst, string(rec.Group), string(rec.Origin), rec.Trace, len(rec.Slice)), rec.Slice...)
}

// TestSliceRecordsRefuseWhole: a section with no record, one cut short
// anywhere but between records, an empty slice or a byte behind the last
// record is refused whole, whatever records before it parse; records
// written back to back read back in order.
func TestSliceRecordsRefuseWhole(t *testing.T) {
	recs := []SliceRecord{
		{Group: []byte("math"), Origin: []byte("urn:jxta:cbid-alice"), Slice: []byte{5, 1, 2, 3}},
		{Group: []byte("physics"), Origin: []byte{}, Trace: 0x0123456789abcdef, Slice: []byte{5}},
	}
	var section []byte
	for _, r := range recs {
		section = appendSliceRecord(section, r)
	}
	got, err := ParseSliceRecords(section)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		r, ok := got.Next()
		if !ok || !bytes.Equal(r.Group, want.Group) || !bytes.Equal(r.Origin, want.Origin) || r.Trace != want.Trace || !bytes.Equal(r.Slice, want.Slice) {
			t.Fatalf("record %d read back as %+v, want %+v", i, r, want)
		}
	}
	if _, ok := got.Next(); ok {
		t.Fatal("a record behind the last")
	}
	for _, bad := range [][]byte{
		nil,
		append(bytes.Clone(section), 0),
		appendSliceRecord(bytes.Clone(section), SliceRecord{Group: []byte("math"), Slice: []byte{}}),
	} {
		if _, err := ParseSliceRecords(bad); !errors.Is(err, ErrSliceRecords) {
			t.Fatalf("section %x: %v, want %v", bad, err, ErrSliceRecords)
		}
	}
	first := len(appendSliceRecord(nil, recs[0]))
	for n := 1; n < len(section); n++ {
		if n == first {
			continue // the first record whole, a section of its own
		}
		if _, err := ParseSliceRecords(section[:n]); !errors.Is(err, ErrSliceRecords) {
			t.Fatalf("section cut to %d of %d bytes: %v, want %v", n, len(section), err, ErrSliceRecords)
		}
	}
}

// TestSliceRecordSizeRefusesLongFields: a group or origin a u16 length
// cannot say is refused before anything is written.
func TestSliceRecordSizeRefusesLongFields(t *testing.T) {
	long := string(make([]byte, MaxField+1))
	for _, f := range [][2]string{{long, "o"}, {"g", long}} {
		if _, err := SliceRecordSize(f[0], f[1], 1); !errors.Is(err, ErrFieldTooLong) {
			t.Fatalf("a %d-byte group and %d-byte origin: %v, want %v", len(f[0]), len(f[1]), err, ErrFieldTooLong)
		}
	}
	if n, err := SliceRecordSize("math", "o", 3); err != nil || n != len(appendSliceRecord(nil, SliceRecord{Group: []byte("math"), Origin: []byte("o"), Slice: make([]byte, 3)})) {
		t.Fatalf("SliceRecordSize = %d, %v; want the length of the record", n, err)
	}
}

// FuzzSlicePush feeds the relay push's record decoder — the data of the
// ElemSlices element anyone who reaches a client's overlay:client service
// can send it — any bytes. It must not panic; what it accepts holds at
// least one record, every record's fields are views inside the input, each
// slice is at least a byte, and the records written back are the input
// byte for byte.
func FuzzSlicePush(f *testing.F) {
	for _, section := range pushSections(f) {
		f.Add(section)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, section []byte) {
		recs, err := ParseSliceRecords(section)
		if err != nil {
			return
		}
		inside := func(v []byte) bool {
			if len(v) == 0 {
				return true
			}
			start := uintptr(unsafe.Pointer(unsafe.SliceData(section)))
			at := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
			return at >= start && at+uintptr(len(v)) <= start+uintptr(len(section))
		}
		var again []byte
		n := 0
		for rec, ok := recs.Next(); ok; rec, ok = recs.Next() {
			if len(rec.Slice) == 0 || !inside(rec.Group) || !inside(rec.Origin) || !inside(rec.Slice) {
				t.Fatalf("record %d: an empty slice or a view outside the input", n)
			}
			again = appendSliceRecord(again, rec)
			n++
		}
		if n == 0 || !bytes.Equal(again, section) {
			t.Fatalf("%d records written back as\n%x\nwant\n%x", n, again, section)
		}
	})
}
