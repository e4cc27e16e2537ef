package seglog

import (
	"errors"
	"os"
	"path/filepath"
)

// Deterministic on-disk damage, used by the fault-injection and
// disk-adversary suites to produce the two shapes recovery must tell
// apart: a record torn in half by a crash mid-write, and a bit flipped
// by the disk (or an attacker) under an intact length frame. Damage is
// done by path, offset and bit on a CLOSED log's directory — never
// through the Log API — the way a failing or malicious disk would.

// ErrNoRecords means the directory holds no complete record to damage.
var ErrNoRecords = errors.New("seglog: no records to damage")

// Loc names one record's position on disk.
type Loc struct {
	Segment string // file name within the log directory
	Offset  int64  // byte offset of the record's header
	Size    int64  // framed size (header + body)
}

// Last locates the last complete record of dir's final segment.
func (f Format) Last(dir string) (Loc, error) {
	segs, err := f.List(dir)
	if err != nil {
		return Loc{}, err
	}
	if len(segs) == 0 {
		return Loc{}, ErrNoRecords
	}
	loc := Loc{Segment: segs[len(segs)-1].Name}
	_, err = f.Walk(filepath.Join(dir, loc.Segment), func(off int64, framed []byte) error {
		loc.Offset, loc.Size = off, int64(len(framed))
		return nil
	})
	if err == nil && loc.Size == 0 {
		err = ErrNoRecords
	}
	return loc, err
}

// Tear truncates the record's segment mid-way through the record — the
// torn tail an interrupted append (or a truncation attack) leaves.
func (loc Loc) Tear(dir string) error {
	return os.Truncate(filepath.Join(dir, loc.Segment), loc.Offset+loc.Size/2)
}

// FlipBit flips one bit in the middle of the record's body, leaving the
// length frame intact, so the record reads far enough to fail its CRC
// check rather than its framing.
func (loc Loc) FlipBit(dir string) error {
	f, err := os.OpenFile(filepath.Join(dir, loc.Segment), os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	pos := loc.Offset + HeaderSize + (loc.Size-HeaderSize)/2
	var b [1]byte
	if _, err := f.ReadAt(b[:], pos); err != nil {
		return err
	}
	b[0] ^= 0x10
	_, err = f.WriteAt(b[:], pos)
	return err
}
