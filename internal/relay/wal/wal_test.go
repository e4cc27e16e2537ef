package wal

import (
	"bytes"
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
			Payload: []byte("hello"), Expires: time.Unix(0, 123456789), Forwarded: true},
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
		if _, _, err := DecodeRecord(enc[:n]); !errors.Is(err, ErrShortRecord) {
			t.Fatalf("truncation to %d: err = %v, want ErrShortRecord", n, err)
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
	// Tiny segment budget so every few records trigger a compaction.
	l, _, _ := openT(t, Options{Dir: dir, SegmentBytes: 512})
	var live []Seq
	for i := 0; i < 50; i++ {
		seq, err := l.AppendAdd(addRec("bob", "payload-that-occupies-some-bytes"))
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
	if l.SegmentIndex() == 0 {
		t.Fatal("segment never rotated")
	}
	l.Close()

	// Disk usage reflects the live set, not the 50 adds + 40 acks.
	var total int64
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("compaction left %d segments, want 1", len(entries))
	}
	for _, e := range entries {
		fi, _ := os.Stat(filepath.Join(dir, e.Name()))
		total += fi.Size()
	}
	if total > 2048 {
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
	for _, p := range []FaultPoint{BeforeAppend, AfterAppend, BeforeSync, AfterSync} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			armed := false
			l, _, _ := openT(t, Options{Dir: dir, Faults: func(fp FaultPoint) error {
				if armed && fp == p {
					return ErrInjected
				}
				return nil
			}})
			if _, err := l.AppendAdd(addRec("bob", "durable")); err != nil {
				t.Fatal(err)
			}
			armed = true
			_, err := l.AppendAdd(addRec("bob", "at-crash"))
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("append at crash point: %v", err)
			}
			// The log is dead: every later operation fails.
			if _, err := l.AppendAdd(addRec("bob", "after")); !errors.Is(err, ErrLogFailed) {
				t.Fatalf("append after crash: %v", err)
			}
			if err := l.Sync(); !errors.Is(err, ErrLogFailed) {
				t.Fatalf("sync after crash: %v", err)
			}
			l.Close()

			_, recovered, _ := openT(t, Options{Dir: dir})
			// The pre-crash record was fsynced and must survive; the
			// record at the crash point survives only if its bytes were
			// written before the fault fired.
			want := map[FaultPoint]int{BeforeAppend: 1, AfterAppend: 2, BeforeSync: 2, AfterSync: 2}[p]
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
		Faults: func(fp FaultPoint) error {
			if fp == AfterSync {
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
