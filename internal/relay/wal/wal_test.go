package wal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/seglog"
)

func addRec(to, payload string) Record {
	return Record{
		To: keys.PeerID("peer-" + to[:1]), From: "sender", Group: "g",
		Payload: []byte(payload),
		Expires: time.Unix(2000, 0),
	}
}

func openT(t *testing.T, opts Options) (*Log, []Record, RecoveryStats) {
	t.Helper()
	l, recovered, stats, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, recovered, stats
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: KindAdd, Seq: 1, To: "bob", From: "alice", Group: "math",
			Payload: []byte("hello"), Expires: time.Unix(0, 123456789)},
		{Kind: KindAdd, Seq: 2, To: "", From: "", Group: "", Payload: nil, Expires: time.Time{}},
		{Kind: KindAck, Seq: 1, Reason: AckDelivered},
		{Kind: KindAck, Seq: 9, Reason: AckDropped},
	}
	for _, rec := range recs {
		enc, err := AppendRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("decode consumed %d of %d", n, len(enc))
		}
		re, err := AppendRecord(nil, got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, enc) {
			t.Fatalf("re-encode differs:\n%x\n%x", enc, re)
		}
		// Nanosecond fidelity is the codec contract (a zero time.Time has
		// no defined UnixNano and the relay always stamps Expires first).
		if got.Kind == KindAdd && got.Expires.UnixNano() != rec.Expires.UnixNano() {
			t.Fatalf("expires %v != %v", got.Expires, rec.Expires)
		}
	}
}

// legacyForwardedRecord is an add record as brokers that federated wrote
// one for a slice a partner handed off: Seq 1, to "bob" from "sender" in
// group "g", payload "handed off", expiring at 4102444800 s, its flags
// byte flagForwarded. The bytes are that encoder's output, kept verbatim.
func legacyForwardedRecord() []byte {
	b, err := hex.DecodeString("31000000586b5fcf010101000000000000000000a656cfcfee38010300626f62060073656e6465720100670a00000068616e646564206f6666")
	if err != nil {
		panic(err)
	}
	return b
}

// addFlags is the offset of an add record's flags byte in its frame.
const addFlags = seglog.HeaderSize + fixedBody + 8

// TestDecodeReadsPastForwardedFlag: a log written with the flag set on an
// add decodes field for field and re-encodes with the flag 0; any other
// flag bit is corrupt.
func TestDecodeReadsPastForwardedFlag(t *testing.T) {
	enc := legacyForwardedRecord()
	if enc[addFlags] != flagForwarded {
		t.Fatalf("flags byte = %#x, want the forwarded bit", enc[addFlags])
	}
	rec, n, err := DecodeRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	want := Record{Kind: KindAdd, Seq: 1, To: "bob", From: "sender", Group: "g", Payload: []byte("handed off")}
	if n != len(enc) || rec.Kind != want.Kind || rec.Seq != want.Seq || rec.To != want.To || rec.From != want.From ||
		rec.Group != want.Group || !bytes.Equal(rec.Payload, want.Payload) || rec.Expires.Unix() != 4102444800 {
		t.Fatalf("decoded %+v (%d of %d bytes)", rec, n, len(enc))
	}
	re, err := AppendRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	cleared := bytes.Clone(enc)
	cleared[addFlags] = 0
	if !bytes.Equal(re, seglog.EndFrame(cleared, 0)) {
		t.Fatalf("re-encoded %x, want the record with its flags byte 0", re)
	}
	for bit := 1; bit < 8; bit++ {
		bad := bytes.Clone(enc)
		bad[addFlags] |= 1 << bit
		if _, _, err := DecodeRecord(seglog.EndFrame(bad, 0)); !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("flag bit %d: err = %v, want ErrCorruptRecord", bit, err)
		}
	}
}

func TestDecodeRejectsTamper(t *testing.T) {
	enc, err := AppendRecord(nil, Record{Kind: KindAdd, Seq: 7, To: "bob",
		From: "alice", Group: "g", Payload: []byte("payload"), Expires: time.Unix(5, 0)})
	if err != nil {
		t.Fatal(err)
	}
	// Any single bit flip in the body must fail the CRC.
	for i := seglog.HeaderSize; i < len(enc); i++ {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x04
		if _, _, err := DecodeRecord(mut); !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("bit flip at %d: err = %v, want ErrCorruptRecord", i, err)
		}
	}
	// Any truncation must read as a torn record, not garbage.
	for n := 0; n < len(enc); n++ {
		if _, _, err := DecodeRecord(enc[:n]); !errors.Is(err, seglog.ErrShort) {
			t.Fatalf("truncation to %d: err = %v, want seglog.ErrShort", n, err)
		}
	}
}

func TestRecoveryRebuildsLiveSet(t *testing.T) {
	dir := t.TempDir()
	l, recovered, _ := openT(t, Options{Dir: dir})
	if len(recovered) != 0 {
		t.Fatalf("fresh dir recovered %d records", len(recovered))
	}
	s1, err := l.AppendAdd(addRec("bob", "m0"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendAdd(addRec("bob", "m1")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendAdd(addRec("carol", "m2")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendAck(s1, AckDelivered); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, recovered, stats := openT(t, Options{Dir: dir})
	if len(recovered) != 2 || stats.Live != 2 {
		t.Fatalf("recovered %d live (stats %+v), want 2", len(recovered), stats)
	}
	if stats.Acked != 1 {
		t.Fatalf("acked = %d, want 1", stats.Acked)
	}
	// Enqueue order survives: m1 (seq 2) before m2 (seq 3).
	if string(recovered[0].Payload) != "m1" || string(recovered[1].Payload) != "m2" {
		t.Fatalf("recovered order: %q, %q", recovered[0].Payload, recovered[1].Payload)
	}
	if recovered[1].To != "peer-c" {
		t.Fatalf("recovered To = %q", recovered[1].To)
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, Options{Dir: dir})
	if _, err := l.AppendAdd(addRec("bob", "kept")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendAdd(addRec("bob", "torn-away")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := TearFinalRecord(dir); err != nil {
		t.Fatal(err)
	}

	l2, recovered, stats := openT(t, Options{Dir: dir})
	if len(recovered) != 1 || string(recovered[0].Payload) != "kept" {
		t.Fatalf("recovered = %v", recovered)
	}
	if stats.TornBytes == 0 {
		t.Fatal("torn tail not reported")
	}
	// The tail was truncated: appending now must yield a log that
	// replays cleanly, with no garbage between records.
	if _, err := l2.AppendAdd(addRec("bob", "after-tear")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, recovered, stats = openT(t, Options{Dir: dir})
	if len(recovered) != 2 || stats.TornBytes != 0 {
		t.Fatalf("post-repair recovery: %d live, stats %+v", len(recovered), stats)
	}
}

func TestRecoveryStopsAtFlippedCRC(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, Options{Dir: dir})
	if _, err := l.AppendAdd(addRec("bob", "kept")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendAdd(addRec("bob", "flipped")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := FlipTailCRC(dir); err != nil {
		t.Fatal(err)
	}
	_, recovered, _ := openT(t, Options{Dir: dir})
	if len(recovered) != 1 || string(recovered[0].Payload) != "kept" {
		t.Fatalf("recovered = %v, want only the intact record", recovered)
	}
}

func TestCompactionReclaimsAckedRecords(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, Options{Dir: dir})
	// 64 KiB payloads fill the 4 MiB segment budget in 64 records; the
	// loop stops at the first compaction.
	const payloadBytes = 64 << 10
	payload := string(bytes.Repeat([]byte("x"), payloadBytes))
	var live []Seq
	for i := 0; segmentIndex(l) == 0; i++ {
		if i == 100 {
			t.Fatal("segment never rotated")
		}
		seq, err := l.AppendAdd(addRec("bob", payload))
		if err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			live = append(live, seq) // keep every fifth
			continue
		}
		if err := l.AppendAck(seq, AckDelivered); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Disk usage reflects the live set (and the add the compaction ran
	// under, acked after it), not the 4 MiB of adds and acks behind it.
	var total int64
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("compaction left %d segments, want 1", len(entries))
	}
	for _, e := range entries {
		fi, _ := os.Stat(filepath.Join(dir, e.Name()))
		total += fi.Size()
	}
	if total > int64(len(live)+1)*(payloadBytes+256) {
		t.Fatalf("compacted log is %d bytes for %d live records", total, len(live))
	}
	_, recovered, _ := openT(t, Options{Dir: dir})
	if len(recovered) != len(live) {
		t.Fatalf("recovered %d, want %d", len(recovered), len(live))
	}
	for i, rec := range recovered {
		if rec.Seq != live[i] {
			t.Fatalf("recovered seq %d, want %d", rec.Seq, live[i])
		}
	}
}

func TestSeqContinuesAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, Options{Dir: dir})
	last, _ := l.AppendAdd(addRec("bob", "m0"))
	l.Close()
	l2, _, _ := openT(t, Options{Dir: dir})
	defer l2.Close()
	next, err := l2.AppendAdd(addRec("bob", "m1"))
	if err != nil {
		t.Fatal(err)
	}
	if next <= last {
		t.Fatalf("seq did not advance across recovery: %d then %d", last, next)
	}
}

func TestInjectedCrashIsSticky(t *testing.T) {
	for _, p := range []seglog.FaultPoint{seglog.BeforeAppend, seglog.AfterAppend, seglog.BeforeSync, seglog.AfterSync} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			armed := false
			l, _, _ := openT(t, Options{Dir: dir, Faults: func(fp seglog.FaultPoint) error {
				if armed && fp == p {
					return seglog.ErrInjected
				}
				return nil
			}})
			if _, err := l.AppendAdd(addRec("bob", "durable")); err != nil {
				t.Fatal(err)
			}
			armed = true
			_, err := l.AppendAdd(addRec("bob", "at-crash"))
			if !errors.Is(err, seglog.ErrInjected) {
				t.Fatalf("append at crash point: %v", err)
			}
			// The log is dead: every later operation fails.
			if _, err := l.AppendAdd(addRec("bob", "after")); !errors.Is(err, seglog.ErrFailed) {
				t.Fatalf("append after crash: %v", err)
			}
			if err := l.Sync(); !errors.Is(err, seglog.ErrFailed) {
				t.Fatalf("sync after crash: %v", err)
			}
			l.Close()

			_, recovered, _ := openT(t, Options{Dir: dir})
			// The pre-crash record was fsynced and must survive; the
			// record at the crash point survives only if its bytes were
			// written before the fault fired.
			want := map[seglog.FaultPoint]int{seglog.BeforeAppend: 1, seglog.AfterAppend: 2, seglog.BeforeSync: 2, seglog.AfterSync: 2}[p]
			if len(recovered) != want {
				t.Fatalf("recovered %d records after %s crash, want %d", len(recovered), p, want)
			}
			if string(recovered[0].Payload) != "durable" {
				t.Fatalf("fsynced record lost: %q", recovered[0].Payload)
			}
		})
	}
}

func TestBatchedSyncIntervalFlushes(t *testing.T) {
	dir := t.TempDir()
	var syncs int
	l, _, _ := openT(t, Options{Dir: dir, SyncInterval: 5 * time.Millisecond,
		Faults: func(fp seglog.FaultPoint) error {
			if fp == seglog.AfterSync {
				syncs++
			}
			return nil
		}})
	for i := 0; i < 10; i++ {
		if _, err := l.AppendAdd(addRec("bob", "m")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		l.log.Lock()
		n := syncs
		l.log.Unlock()
		if n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background flusher never synced")
		}
		time.Sleep(time.Millisecond)
	}
	l.log.Lock()
	n := syncs
	l.log.Unlock()
	if n >= 10 {
		t.Fatalf("%d fsyncs for 10 appends: batching is not batching", n)
	}
	l.Close()
	_, recovered, _ := openT(t, Options{Dir: dir})
	if len(recovered) != 10 {
		t.Fatalf("recovered %d, want 10", len(recovered))
	}
}

// segmentIndex reads the index of l's active segment.
func segmentIndex(l *Log) int {
	l.log.Lock()
	defer l.log.Unlock()
	return l.log.Index()
}
