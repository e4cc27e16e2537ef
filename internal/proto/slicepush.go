package proto

import (
	"encoding/binary"
	"errors"
	"math"
)

// The record section of a relay push (OpSliceDeliver): the slices a broker
// hands one recipient in one frame, a direct push's one or a drain's batch,
// in queue order. It is the data of the push's ElemSlices element:
//
//	per record: u16 len ‖ group ‖ u16 len ‖ claimed origin ‖ u64 trace ID (0: untraced) ‖ u32 len ‖ slice
//
// The group and the origin are the broker's claims, which nothing signs;
// each slice carries the signed header its recipient checks it by, on its
// own. A section is read whole before any record is handed on: one that
// does not parse is refused as a whole.

// SliceRecord is one record of a push's section. Its byte fields are views
// of the section.
type SliceRecord struct {
	Group, Origin []byte
	Trace         uint64
	Slice         []byte
}

// sliceRecordFixed is a record's length without its group, origin and
// slice: their lengths and the trace ID.
const sliceRecordFixed = 2 + 2 + 8 + 4

// ErrSliceRecords refuses a record section that does not parse whole: no
// record, a record cut short, an empty slice.
var ErrSliceRecords = errors.New("proto: malformed slice push records")

// SliceRecordSize is the length of a record of a slice of n bytes. It
// refuses, with ErrFieldTooLong, a group or origin longer than MaxField
// and a slice longer than a u32 length can say.
func SliceRecordSize(group, origin string, n int) (int, error) {
	if max(len(group), len(origin)) > MaxField || uint64(n) > math.MaxUint32 {
		return 0, ErrFieldTooLong
	}
	return sliceRecordFixed + len(group) + len(origin) + n, nil
}

// AppendSliceHead appends a record up to its slice, of n bytes, which the
// caller appends next: fields SliceRecordSize admits.
func AppendSliceHead(dst []byte, group, origin string, trace uint64, n int) []byte {
	dst = AppendField(AppendField(dst, group), origin)
	dst = binary.BigEndian.AppendUint64(dst, trace)
	return binary.BigEndian.AppendUint32(dst, uint32(n))
}

// SliceRecords reads a section ParseSliceRecords checked, record by record.
type SliceRecords struct{ rest []byte }

// ParseSliceRecords checks a whole section — at least one record, each
// whole with a slice of at least one byte, nothing behind the last — and
// returns its reader.
func ParseSliceRecords(section []byte) (SliceRecords, error) {
	recs := SliceRecords{section}
	if len(section) == 0 {
		return recs, ErrSliceRecords
	}
	for in := NewReader(section); in.Len() > 0; {
		if rec := readSliceRecord(&in); len(rec.Slice) == 0 {
			return recs, ErrSliceRecords
		}
	}
	return recs, nil
}

// Next cuts the next record off the section; false once none is left.
func (s *SliceRecords) Next() (SliceRecord, bool) {
	if len(s.rest) == 0 {
		return SliceRecord{}, false
	}
	in := NewReader(s.rest)
	rec := readSliceRecord(&in)
	s.rest = in.Rest()
	return rec, true
}

// readSliceRecord reads one record; a read that does not fit leaves its
// slice nil.
func readSliceRecord(in *Reader) (rec SliceRecord) {
	rec.Group = in.Field()
	rec.Origin = in.Field()
	rec.Trace = in.Uint(8)
	if n := in.Uint(4); n <= uint64(in.Len()) {
		rec.Slice = in.Bytes(int(n))
	} else {
		in.Bytes(in.Len() + 1) // fails the reader
	}
	return rec
}
