package audit

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/seglog"
)

// TestJournalCrashMatrix fails the journal's file system at each
// boundary of the first batch after a durable one, in the staged and the
// sync-per-append mode, and asserts what the relay WAL's crash tests
// assert of queues: the journal fails and makes no file operation
// again, and the directory reopens, verifies clean, holds every record
// fsynced before the failure and none that was never attempted, and
// appends continue the chain. The boundary is the first subtest level:
// the batch's write fails (before-append); the write lands and the power
// goes before its fsync (after-append); the fsync fails with the machine
// up (before-sync); the fsync returns and the power goes at the next
// operation (after-sync).
func TestJournalCrashMatrix(t *testing.T) {
	kp, chain, trust := signer(t)
	modes := []struct {
		name     string
		interval time.Duration
	}{{"staged", time.Hour}, {"sync-per-append", 0}}
	points := []struct {
		name  string
		fail  int  // the operation after the durable batch that fails: 1 its write, 2 its fsync, 3 the next
		crash bool // the power goes at the failure
	}{{"before-append", 1, true}, {"after-append", 2, true}, {"before-sync", 2, false}, {"after-sync", 3, true}}
	for i, p := range points {
		for _, mode := range modes {
			t.Run(p.name+"/"+mode.name, func(t *testing.T) {
				dir := t.TempDir()
				opts := Options{Dir: dir, SyncInterval: mode.interval, CheckpointEvery: 4, Signer: kp, Chain: chain}
				fs := seglog.NewCrashFS(int64(i))
				j, err := open(opts, fs)
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

				failed := fs.Ops() + p.fail
				fs.FailAt(failed)
				for i := 0; i < 3; i++ {
					j.Record(ev(100 + i))
				}
				j.Sync() // at after-sync it returns nil: the next batch meets the failure
				j.Record(ev(103))
				if err := j.Sync(); !errors.Is(err, seglog.ErrFailed) || !errors.Is(err, seglog.ErrInjected) {
					t.Fatalf("Sync after the crash: %v", err)
				}
				st := j.Stats()
				if seq := j.Record(ev(200)); seq != 0 || !st.Failed || j.Stats().Lost != st.Lost+1 {
					t.Fatalf("failed journal accepted an event (seq %d, stats %+v)", seq, st)
				}
				attempted := j.Seq() // events and checkpoints alike
				if err := j.Close(); !errors.Is(err, seglog.ErrFailed) {
					t.Fatalf("Close after the crash: %v", err)
				}
				if ops := fs.Ops(); ops != failed {
					t.Fatalf("a failed journal made %d file operations after the failing one", ops-failed)
				}
				if p.crash {
					if _, _, err := fs.Crash(); err != nil {
						t.Fatal(err)
					}
				}
				if err := checkRecovered(opts, trust, durable, attempted); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// checkRecovered reopens a crashed journal on the os and holds it to
// the recovery model: it opens, holds at least the durable records and
// no more than were attempted, verifies clean through them, and an
// append continues the chain, sealed by Close.
func checkRecovered(opts Options, trust *cred.TrustStore, durable, attempted uint64) error {
	j, err := Open(opts)
	if err != nil {
		return fmt.Errorf("reopen after the crash: %v", err)
	}
	defer j.Close()
	recovered := j.Stats().Recovered
	if recovered < durable || recovered > attempted {
		return fmt.Errorf("recovered %d records; %d were fsynced before the crash, %d ever attempted", recovered, durable, attempted)
	}
	rep, err := Verify(opts.Dir, VerifyOptions{Trust: trust})
	if err != nil {
		return err
	}
	if !rep.OK() || rep.LastSeq != recovered {
		return fmt.Errorf("verify after crash: last seq %d of %d recovered, fault %v", rep.LastSeq, recovered, rep.Fault)
	}
	if seq := j.Record(ev(300)); seq != recovered+1 {
		return fmt.Errorf("append after recovery got seq %d, want %d", seq, recovered+1)
	}
	if err := j.Close(); err != nil {
		return err
	}
	if rep, err = Verify(opts.Dir, VerifyOptions{Trust: trust}); err != nil || !rep.OK() || rep.Unsealed != 0 {
		return fmt.Errorf("verify after resumed appends: %+v, err %v", rep, err)
	}
	return nil
}

// TestCrashAtEveryOperation runs one sequence of events, syncs,
// checkpoints, history rotations and a sealing Close in both durability
// modes and records its N file operations. Then, for every i from 0 to
// N and two seeds, it runs the sequence again with operation i+1
// failing, cuts the power and reopens what survives: the chain must
// verify, hold every record whose Record returned a sequence number at
// SyncInterval 0 (and every one a returned Sync covered, staged), and
// continue (checkRecovered).
func TestCrashAtEveryOperation(t *testing.T) {
	kp, chain, trust := signer(t)
	for _, mode := range []struct {
		name     string
		interval time.Duration
	}{{"staged", time.Hour}, {"sync-per-append", 0}} {
		t.Run(mode.name, func(t *testing.T) {
			// A 512-byte budget rotates the history every few batches.
			opts := Options{SyncInterval: mode.interval, SegmentBytes: 512, CheckpointEvery: 3, Signer: kp, Chain: chain}
			run := func(dir string, fs *seglog.CrashFS) (durable, attempted uint64) {
				opts := opts
				opts.Dir = dir
				j, err := open(opts, fs)
				if err != nil {
					return 0, 0
				}
				for i := 0; i < 8; i++ {
					if seq := j.Record(ev(i)); seq != 0 && mode.interval == 0 {
						durable = seq
					}
					if mode.interval > 0 && i%2 == 1 && j.Sync() == nil {
						durable = j.Seq()
					}
				}
				attempted = j.Seq() + 1 // Close seals with one more
				if j.Close() == nil {
					durable = j.Seq()
				}
				return durable, attempted
			}
			dry, dryDir := seglog.NewCrashFS(0), t.TempDir()
			run(dryDir, dry)
			if st, err := Verify(dryDir, VerifyOptions{Trust: trust}); err != nil || st.Segments < 3 || st.Checkpoints < 2 {
				t.Fatalf("the sequence wrote %+v (err %v), want a few segments and checkpoints", st, err)
			}
			n := dry.Ops()
			for i := 0; i <= n; i++ {
				for seed := int64(1); seed <= 2; seed++ {
					dir := t.TempDir()
					fs := seglog.NewCrashFS(seed)
					fs.FailAt(i + 1)
					durable, attempted := run(dir, fs)
					opts := opts
					opts.Dir = dir
					_, _, err := fs.Crash()
					if err == nil {
						err = checkRecovered(opts, trust, durable, attempted)
					}
					if err != nil {
						t.Fatalf("seed %d, crash after operation %d of %d: %v", seed, i, n, err)
					}
				}
			}
		})
	}
}

// TestStrayFilesAreNotSegments: a backup copy of a segment (or any file
// that merely resembles one) beside the journal must not be replayed as
// part of it — the lax matcher read audit-00000000.seg.bak as a second
// segment 0, so Open refused an intact journal as damaged and Verify
// reported it tampered.
func TestStrayFilesAreNotSegments(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, SyncInterval: time.Hour})
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
	j2, err := Open(Options{Dir: dir, SyncInterval: time.Hour})
	if err != nil {
		t.Fatalf("open beside stray files: %v", err)
	}
	defer j2.Close()
	if st := j2.Stats(); st.Recovered != 5 || st.Segments != 1 {
		t.Fatalf("recovered %+v, want 5 records in 1 segment", st)
	}
}
