package wal

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStrayFilesAreNotSegments: files that merely resemble a segment
// name must be ignored. The lax matcher read seg-7.tmp as segment 7,
// so Open — and with it broker relay start-up — failed looking for
// seg-00000007.wal, and a .bak copy replayed as a second segment 0.
func TestStrayFilesAreNotSegments(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, Options{Dir: dir})
	seq, err := l.AppendAdd(addRec("bob", "acked"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendAdd(addRec("bob", "live")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, format.Name(0)))
	if err != nil {
		t.Fatal(err)
	}
	for stray, data := range map[string][]byte{"seg-7.tmp": nil, "seg-00000003.wal.bak": seg, "seg-00000000.wal~": seg} {
		if err := os.WriteFile(filepath.Join(dir, stray), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l2, recovered, stats, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("open beside stray files: %v", err)
	}
	if len(recovered) != 2 || l2.SegmentIndex() != 0 {
		t.Fatalf("recovered %d records into segment %d (stats %+v), want 2 into 0", len(recovered), l2.SegmentIndex(), stats)
	}
	// The ack must land in the real segment, not after a stray one.
	if err := l2.AppendAck(seq, AckDelivered); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if _, recovered, _ = openT(t, Options{Dir: dir}); len(recovered) != 1 || string(recovered[0].Payload) != "live" {
		t.Fatalf("after ack: recovered %v", recovered)
	}
}
