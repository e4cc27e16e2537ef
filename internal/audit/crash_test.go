package audit

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"jxtaoverlay/internal/seglog"
)

// TestJournalCrashMatrix kills the journal at each of seglog's four
// fault points, in the staged and the sync-per-append mode, and asserts
// what the relay WAL's crash matrix asserts of queues: the directory
// reopens, verifies clean, holds every record fsynced before the fault
// and none that was never attempted, and appends continue the chain.
// The fault point is the first subtest level so CI can select one
// (-run 'TestJournalCrashMatrix/before-sync').
func TestJournalCrashMatrix(t *testing.T) {
	kp, chain, trust := signer(t)
	modes := []struct {
		name     string
		interval time.Duration
	}{{"staged", time.Hour}, {"sync-per-append", 0}}
	for _, p := range []seglog.FaultPoint{seglog.BeforeAppend, seglog.AfterAppend, seglog.BeforeSync, seglog.AfterSync} {
		for _, mode := range modes {
			t.Run(p.String()+"/"+mode.name, func(t *testing.T) {
				dir := t.TempDir()
				opts := Options{Dir: dir, SyncInterval: mode.interval, CheckpointEvery: 4, Signer: kp, Chain: chain}
				armed, attempted := false, uint64(0)
				j, err := open(opts, func(fp seglog.FaultPoint) error {
					if fp == seglog.BeforeAppend {
						attempted++ // events and checkpoints alike
					}
					if armed && fp == p {
						return seglog.ErrInjected
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 6; i++ {
					mustRecord(t, j, ev(i))
				}
				if err := j.Sync(); err != nil {
					t.Fatal(err)
				}
				durable := j.Seq()

				armed = true
				for i := 0; i < 3; i++ {
					j.Record(ev(100 + i))
				}
				if err := j.Sync(); !errors.Is(err, ErrJournalFailed) || !errors.Is(err, seglog.ErrInjected) {
					t.Fatalf("Sync after the crash: %v", err)
				}
				st := j.Stats()
				if seq := j.Record(ev(200)); seq != 0 || !st.Failed || j.Stats().Lost != st.Lost+1 {
					t.Fatalf("failed journal accepted an event (seq %d, stats %+v)", seq, st)
				}
				if err := j.Close(); !errors.Is(err, ErrJournalFailed) {
					t.Fatalf("Close after the crash: %v", err)
				}

				j2, err := Open(opts)
				if err != nil {
					t.Fatalf("reopen after %s crash: %v", p, err)
				}
				recovered := j2.Stats().Recovered
				if recovered < durable || recovered > attempted {
					t.Fatalf("recovered %d records; %d were fsynced before the crash, %d ever attempted", recovered, durable, attempted)
				}
				rep, err := Verify(dir, VerifyOptions{Trust: trust})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.OK() || rep.LastSeq != recovered {
					t.Fatalf("verify after crash: last seq %d of %d recovered, fault %v", rep.LastSeq, recovered, rep.Fault)
				}
				if seq := mustRecord(t, j2, ev(300)); seq != recovered+1 {
					t.Fatalf("append after recovery got seq %d, want %d", seq, recovered+1)
				}
				if err := j2.Close(); err != nil {
					t.Fatal(err)
				}
				if rep, err = Verify(dir, VerifyOptions{Trust: trust}); err != nil || !rep.OK() || rep.Unsealed != 0 {
					t.Fatalf("verify after resumed appends: %+v, err %v", rep, err)
				}
			})
		}
	}
}

// TestStrayFilesAreNotSegments: a backup copy of a segment (or any file
// that merely resembles one) beside the journal must not be replayed as
// part of it — the lax matcher read audit-00000000.seg.bak as a second
// segment 0, so Open refused an intact journal as damaged and Verify
// reported it tampered.
func TestStrayFilesAreNotSegments(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustRecord(t, j, ev(i))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, format.Name(0)))
	if err != nil {
		t.Fatal(err)
	}
	for _, stray := range []string{format.Name(0) + ".bak", format.Name(0) + "~", "audit-7.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, stray), seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Verify(dir, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Segments != 1 || rep.LastSeq != 5 {
		t.Fatalf("verify beside stray files: %+v (fault %v)", rep, rep.Fault)
	}
	j2, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatalf("open beside stray files: %v", err)
	}
	defer j2.Close()
	if st := j2.Stats(); st.Recovered != 5 || st.Segments != 1 {
		t.Fatalf("recovered %+v, want 5 records in 1 segment", st)
	}
}
