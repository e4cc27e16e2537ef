package audit

import (
	"fmt"
	"os"
	"path/filepath"

	"jxtaoverlay/internal/seglog"
)

// Disk-adversary helpers: the attack suite (and the property test)
// corrupt journals through these so every test damages bytes the same
// way a malicious or failing disk would — by path, offset and bit,
// never through the Journal API.

// ErrNoRecords is returned when a tamper helper needs records the
// journal does not have.
var ErrNoRecords = seglog.ErrNoRecords

// Loc names one record's position on disk (seglog's segment, offset and
// size) and in the chain.
type Loc struct {
	seglog.Loc
	Seq   uint64
	Frame Frame
}

// scan decodes every record in every segment, returning their
// locations in order. Damage mid-scan stops the scan (the helpers
// only need the intact prefix).
func scan(dir string) ([]Loc, error) {
	segs, err := format.List(dir)
	if err != nil {
		return nil, err
	}
	var locs []Loc
	for _, seg := range segs {
		stop, err := format.Walk(filepath.Join(dir, seg.Name), func(off int64, framed []byte) error {
			rec, err := decodeBody(framed[seglog.HeaderSize:])
			if err == nil {
				locs = append(locs, Loc{
					Loc: seglog.Loc{Segment: seg.Name, Offset: off, Size: int64(len(framed))},
					Seq: rec.Seq, Frame: rec.Frame,
				})
			}
			return err
		})
		if err != nil || stop.Err != nil {
			return locs, err
		}
	}
	return locs, nil
}

// last returns the journal's final intact record.
func last(dir string) (Loc, error) {
	locs, err := scan(dir)
	if err == nil && len(locs) == 0 {
		err = ErrNoRecords
	}
	if err != nil {
		return Loc{}, err
	}
	return locs[len(locs)-1], nil
}

// FlipBit flips one bit in the middle of the last record's body — the
// single-bit disk error (or the crudest tamper). The CRC catches it.
func FlipBit(dir string) (Loc, error) {
	loc, err := last(dir)
	if err != nil {
		return Loc{}, err
	}
	return loc, loc.FlipBit(dir)
}

// TearRecord truncates the final segment halfway through its last
// record — the torn write a crash (or a truncation attack) leaves.
func TearRecord(dir string) (Loc, error) {
	loc, err := last(dir)
	if err != nil {
		return Loc{}, err
	}
	return loc, loc.Tear(dir)
}

// SwapRecords swaps the last two records that share a segment — a
// reorder that preserves every byte and every CRC, so only the chain
// (sequence and prev-hash continuity) can convict it. It returns the
// location of the earlier of the two (where verification must break).
func SwapRecords(dir string) (Loc, error) {
	locs, err := scan(dir)
	if err != nil {
		return Loc{}, err
	}
	for i := len(locs) - 1; i > 0; i-- {
		a, b := locs[i-1], locs[i]
		if a.Segment != b.Segment {
			continue
		}
		path := filepath.Join(dir, a.Segment)
		data, err := os.ReadFile(path)
		if err != nil {
			return Loc{}, err
		}
		swapped := make([]byte, 0, len(data))
		swapped = append(swapped, data[:a.Offset]...)
		swapped = append(swapped, data[b.Offset:b.Offset+b.Size]...)
		swapped = append(swapped, data[a.Offset:a.Offset+a.Size]...)
		swapped = append(swapped, data[b.Offset+b.Size:]...)
		return a, os.WriteFile(path, swapped, 0o644)
	}
	return Loc{}, fmt.Errorf("%w: need two records in one segment", ErrNoRecords)
}

// Rollback truncates the journal back to just after its most recent
// checkpoint that is not the final record, deleting later segments —
// the snapshot-restore attack. The resulting journal is internally
// consistent (it ends on a genuine signed checkpoint); only an
// externally remembered trust point (Verify's ExpectHead/ExpectSeq)
// can convict it. It returns the location of the checkpoint the
// journal was rolled back to.
func Rollback(dir string) (Loc, error) {
	locs, err := scan(dir)
	if err != nil {
		return Loc{}, err
	}
	ckpt := -1
	for i := len(locs) - 2; i >= 0; i-- {
		if locs[i].Frame == FrameCheckpoint {
			ckpt = i
			break
		}
	}
	if ckpt < 0 {
		return Loc{}, fmt.Errorf("%w: need a non-final checkpoint to roll back to", ErrNoRecords)
	}
	loc := locs[ckpt]
	if err := os.Truncate(filepath.Join(dir, loc.Segment), loc.Offset+loc.Size); err != nil {
		return Loc{}, err
	}
	// Drop every segment after the one we truncated into.
	segs, err := format.List(dir)
	if err != nil {
		return Loc{}, err
	}
	cut := false
	for _, seg := range segs {
		if cut {
			if err := os.Remove(filepath.Join(dir, seg.Name)); err != nil {
				return Loc{}, err
			}
		}
		if seg.Name == loc.Segment {
			cut = true
		}
	}
	return loc, nil
}
