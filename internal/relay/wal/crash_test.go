package wal

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"jxtaoverlay/internal/seglog"
)

// crashRun is what one run of the crash sequence told its caller.
type crashRun struct {
	added   map[string]bool // every add attempted, by label
	durable map[string]bool // adds an fsync covered, by label
	acked   map[string]bool // acks attempted, by the label of their add
	gone    map[string]bool // acks an fsync covered
}

// runWALCrashSequence runs the fixed sequence on a fresh dir through fs.
// Four 1 MiB adds, two of them acked between, fill the 4 MiB segment
// budget, so the batch holding the fourth compacts; two small adds and
// an ack follow, then Close. Staged, a Sync follows every second
// record. Once the file system fails, every call returns the log's
// sticky error and the sequence runs on regardless.
func runWALCrashSequence(dir string, fs seglog.FS, interval time.Duration) crashRun {
	run := crashRun{added: map[string]bool{}, durable: map[string]bool{}, acked: map[string]bool{}, gone: map[string]bool{}}
	l, _, _, err := Open(Options{Dir: dir, FS: fs, SyncInterval: interval})
	if err != nil {
		return run
	}
	seqs := map[string]Seq{}
	var pending []func() // marks of staged records, for the next Sync that returns nil
	synced := func() {
		for _, mark := range pending {
			mark()
		}
		pending = nil
	}
	step := func(ok bool, mark func()) {
		if interval == 0 {
			if ok {
				mark()
			}
			return
		}
		if pending = append(pending, mark); len(pending)%2 == 0 && l.Sync() == nil {
			synced()
		}
	}
	add := func(label string, size int) {
		payload := append([]byte(label+":"), bytes.Repeat([]byte{'x'}, size)...)
		seq, err := l.AppendAdd(addRec("bob", string(payload)))
		seqs[label] = seq
		run.added[label] = true
		step(err == nil, func() { run.durable[label] = true })
	}
	ack := func(label string) {
		run.acked[label] = true
		err := l.AppendAck(seqs[label], AckDelivered)
		step(err == nil && seqs[label] != 0, func() { run.gone[label] = true })
	}
	add("a", 1<<20)
	add("b", 1<<20)
	ack("a")
	add("c", 1<<20)
	ack("b")
	add("d", 1<<20)
	add("e", 16)
	ack("c")
	add("f", 16)
	if l.Close() == nil {
		synced()
	}
	return run
}

// TestCrashAtEveryOperation runs one sequence of adds, acks, syncs, a
// compaction and a Close in both durability modes and records its N
// file operations. Then, for every i from 0 to N and two seeds, it runs
// the sequence again with operation i+1 failing, cuts the power and
// reopens what survives, which must match the model
// relay.TestRecoveryMatchesModel states of the queues: an add an fsync
// covered comes back unless its ack was attempted, an add whose ack an
// fsync covered never does, nothing comes back that was not added, and
// an append after recovery lands.
func TestCrashAtEveryOperation(t *testing.T) {
	for _, mode := range []struct {
		name     string
		interval time.Duration
	}{{"staged", time.Hour}, {"sync-per-append", 0}} {
		t.Run(mode.name, func(t *testing.T) {
			dry, dryDir := seglog.NewCrashFS(0), t.TempDir()
			runWALCrashSequence(dryDir, dry, mode.interval)
			if segs, err := format.List(dryDir); err != nil || len(segs) != 1 || segs[0].Index != 1 {
				t.Fatalf("the sequence left segments %v (err %v), want the one compaction wrote", segs, err)
			}
			n := dry.Ops()
			for i := 0; i <= n; i++ {
				for seed := int64(1); seed <= 2; seed++ {
					dir := t.TempDir()
					fs := seglog.NewCrashFS(seed)
					fs.FailAt(i + 1)
					run := runWALCrashSequence(dir, fs, mode.interval)
					_, _, err := fs.Crash()
					if err == nil {
						err = run.check(dir)
					}
					if err != nil {
						t.Fatalf("seed %d, crash after operation %d of %d: %v", seed, i, n, err)
					}
				}
			}
		})
	}
}

func (run crashRun) check(dir string) error {
	l, recovered, _, err := Open(Options{Dir: dir})
	if err != nil {
		return fmt.Errorf("recovery: %v", err)
	}
	live := map[string]bool{}
	for _, rec := range recovered {
		label, _, _ := bytes.Cut(rec.Payload, []byte(":"))
		live[string(label)] = true
	}
	defer l.Close()
	for label := range run.added {
		switch {
		case run.durable[label] && !run.acked[label] && !live[label]:
			return fmt.Errorf("durable add %s lost: recovered %v", label, live)
		case run.gone[label] && live[label]:
			return fmt.Errorf("add %s resurrected after its durable ack", label)
		}
	}
	for label := range live {
		if !run.added[label] {
			return fmt.Errorf("recovered %s, which was never added", label)
		}
	}
	if _, err := l.AppendAdd(addRec("bob", "z:after")); err != nil {
		return err
	}
	if err := l.Close(); err != nil {
		return err
	}
	l, again, _, err := Open(Options{Dir: dir})
	if err != nil {
		return err
	}
	l.Close()
	if len(again) != len(recovered)+1 || string(again[len(recovered)].Payload) != "z:after" {
		return fmt.Errorf("after an append to the recovered log recovered %d records, want %d ending in it", len(again), len(recovered)+1)
	}
	return nil
}
