package wal

import "jxtaoverlay/internal/seglog"

// Deterministic on-disk corruption, used by the fault-injection matrix
// (internal/attack, internal/integration) to simulate the two damage
// shapes recovery must absorb; the damage itself is seglog's. These
// operate on a CLOSED log's directory.

// ErrNoRecords means the directory holds no complete record to corrupt.
var ErrNoRecords = seglog.ErrNoRecords

// TearFinalRecord truncates the final segment mid-way through its last
// record — the torn tail an interrupted append leaves behind.
func TearFinalRecord(dir string) error {
	loc, err := format.Last(dir)
	if err != nil {
		return err
	}
	return loc.Tear(dir)
}

// FlipTailCRC flips one bit inside the last record's body, leaving the
// length frame intact, so the record decodes far enough to fail its CRC
// check rather than its framing.
func FlipTailCRC(dir string) error {
	loc, err := format.Last(dir)
	if err != nil {
		return err
	}
	return loc.FlipBit(dir)
}
