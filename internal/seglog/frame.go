package seglog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Every record on disk is one frame:
//
//	uint32 LE  body length
//	uint32 LE  CRC-32C (Castagnoli) of body
//	body       the client's versioned encoding
//
// The CRC guards against accidental damage only; what a body means, and
// any stronger evidence (the audit journal's hash chain), is the
// client's.

// HeaderSize is the length of the frame header (length + CRC).
const HeaderSize = 8

// Frame errors. The distinction is the one recovery policies turn on:
// a crash mid-append can only ever leave a short record.
var (
	// ErrShort: the buffer ends before the record does — the torn tail a
	// crash mid-append leaves behind.
	ErrShort = errors.New("seglog: truncated record")
	// ErrCorrupt: the bytes are all there but invalid — an implausible
	// length, a CRC mismatch, or (from a client's body decoder) a bad
	// version/kind or fields that do not tile the body exactly.
	ErrCorrupt = errors.New("seglog: corrupt record")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// BeginFrame reserves a frame header at the end of dst; the caller
// appends the body and then calls EndFrame with the pre-BeginFrame
// length of dst.
func BeginFrame(dst []byte) []byte { return append(dst, 0, 0, 0, 0, 0, 0, 0, 0) }

// EndFrame backfills the header reserved at dst[start:] over the body
// that follows it.
func EndFrame(dst []byte, start int) []byte {
	body := dst[start+HeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, crcTable))
	return dst
}

// Format is what distinguishes one client's log from another's on
// disk: how its segments are named and how long a body may plausibly
// be. Segment i is named Prefix + %08d(i) + Suffix.
type Format struct {
	Prefix, Suffix string
	// MinBody and MaxBody bound the length field. A length outside them
	// is corrupt whatever follows it, so a damaged length can neither
	// drive a giant allocation nor pass for a torn tail.
	MinBody, MaxBody uint32
}

// Decode checks the frame at the front of b and returns its body
// (aliasing b) and the number of bytes the frame occupies.
func (f Format) Decode(b []byte) (body []byte, n int, err error) {
	if len(b) < HeaderSize {
		return nil, 0, ErrShort
	}
	bodyLen := binary.LittleEndian.Uint32(b)
	if bodyLen < f.MinBody || bodyLen > f.MaxBody {
		return nil, 0, fmt.Errorf("%w: implausible body length %d", ErrCorrupt, bodyLen)
	}
	if uint32(len(b)-HeaderSize) < bodyLen {
		return nil, 0, ErrShort
	}
	n = HeaderSize + int(bodyLen)
	body = b[HeaderSize:n]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, 0, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return body, n, nil
}

// Name is the file name of segment i.
func (f Format) Name(i int) string { return fmt.Sprintf("%s%08d%s", f.Prefix, i, f.Suffix) }

// Segment is one segment file as List found it.
type Segment struct {
	Index int
	Name  string
	Size  int64
}

// List returns dir's segments in index order. A file is a segment only
// if its name is exactly the canonical name of the index it parses to:
// backups, temporaries and editor droppings that merely resemble one
// (seg-00000003.wal.bak, seg-7.tmp, audit-00000000.seg~) are not the
// log and are ignored.
func (f Format) List(dir string) ([]Segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []Segment
	for _, e := range entries {
		name := e.Name()
		i, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, f.Prefix), f.Suffix))
		if err != nil || i < 0 || f.Name(i) != name {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, Segment{Index: i, Name: name, Size: info.Size()})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].Index < segs[b].Index })
	return segs, nil
}

// Stop says where the walk of one segment ended and why.
type Stop struct {
	// Offset is the first byte the walk did not consume; Size is the
	// segment's length. They are equal after a clean walk.
	Offset, Size int64
	// Err is nil after a clean walk, ErrShort or ErrCorrupt for a bad
	// frame, otherwise whatever fn returned for the record at Offset.
	Err error
}

// Walk reads the segment at path and calls fn with the offset and the
// framed bytes (header included) of each record in turn, stopping at
// the first bad frame or the first error from fn. Whether that stop is
// a crash artifact to truncate or damage to refuse is the caller's
// policy; Walk only reports it. The error return is for I/O failures.
func (f Format) Walk(path string, fn func(off int64, framed []byte) error) (Stop, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Stop{}, err
	}
	stop := Stop{Size: int64(len(data))}
	for stop.Offset < stop.Size {
		_, n, err := f.Decode(data[stop.Offset:])
		if err == nil {
			end := stop.Offset + int64(n)
			err = fn(stop.Offset, data[stop.Offset:end:end])
		}
		if err != nil {
			stop.Err = err
			break
		}
		stop.Offset += int64(n)
	}
	return stop, nil
}
