package seglog

import (
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// crashClient is the log's client in TestCrashAtEveryOperation. A record
// adds item k ("+k") or acks it ("-k"), and a compaction writes an add
// for every item not yet acked.
type crashClient struct {
	l         *Log
	staged    bool            // SyncInterval > 0: an explicit Sync covers the records
	live      map[string]bool // items added and not acked; under l's lock
	committed []string        // every record staged, in order
	durable   int             // how many of committed a returned fsync covered
}

// record appends body. Once it returns nil at SyncInterval 0, an fsync
// covered every record committed so far.
func (c *crashClient) record(body string) {
	c.l.Lock()
	buf, err := c.l.Begin()
	if err == nil {
		c.l.Commit(frame(buf, []byte(body)))
		c.committed = append(c.committed, body)
		if body[0] == '+' {
			c.live[body[1:]] = true
		} else {
			delete(c.live, body[1:])
		}
	}
	c.l.Unlock()
	if err == nil && c.l.Await() == nil && !c.staged {
		c.durable = len(c.committed)
	}
}

func (c *crashClient) compact(w io.Writer) error {
	for _, k := range slices.Sorted(maps.Keys(c.live)) {
		if _, err := w.Write(frame(nil, []byte("+"+k))); err != nil {
			return err
		}
	}
	return nil
}

// runCrashSequence runs the fixed sequence on a fresh dir through fs:
// twelve adds with an ack after every third, a Sync after every second
// add when staged, then Close. A 40-byte segment budget rotates (or
// compacts) every few records. Once the file system fails, every call
// returns the log's sticky error and the sequence runs on regardless.
func runCrashSequence(dir string, fs *CrashFS, compact bool, interval time.Duration) *crashClient {
	c := &crashClient{staged: interval > 0, live: map[string]bool{}}
	opts := Options{Dir: dir, Format: testFormat, FS: fs, SyncInterval: interval, SegmentBytes: 40,
		Replay:  func(int64, []byte) error { return nil },
		Stopped: func(Segment, []Segment, Stop) (bool, error) { return true, nil }}
	if compact {
		opts.Compact = c.compact
	}
	var err error
	if c.l, err = Open(opts); err != nil {
		return c
	}
	for k := 0; k < 12; k++ {
		c.record(fmt.Sprintf("+%02d", k))
		if k%3 == 2 {
			c.record(fmt.Sprintf("-%02d", k-1))
		}
		if c.staged && k%2 == 1 && c.l.Sync() == nil {
			c.durable = len(c.committed)
		}
	}
	if c.l.Close() == nil {
		c.durable = len(c.committed)
	}
	return c
}

// replayAll opens dir on the os, collects every record and closes it.
func replayAll(dir string) ([]string, error) {
	var got []string
	l, err := Open(Options{Dir: dir, Format: testFormat,
		Replay: func(_ int64, framed []byte) error {
			got = append(got, string(framed[HeaderSize:]))
			return nil
		},
		Stopped: func(Segment, []Segment, Stop) (bool, error) { return true, nil }})
	if err != nil {
		return nil, err
	}
	return got, l.Close()
}

// liveSet replays adds and acks into the items left live.
func liveSet(records []string) map[string]bool {
	live := map[string]bool{}
	for _, r := range records {
		if r[0] == '+' {
			live[r[1:]] = true
		} else {
			delete(live, r[1:])
		}
	}
	return live
}

// check holds what recovery made of the crashed dir to the client's
// model. Keeping history, the log replays a prefix of the records
// committed, at least as long as the durable ones. Compacting, an item
// whose add was durable is live unless its ack was committed, an item
// whose ack was durable is not, and nothing live was never added. Then
// an append after recovery lands whole after what was recovered.
func (c *crashClient) check(dir string, compact bool) error {
	got, err := replayAll(dir)
	if err != nil {
		return fmt.Errorf("recovery: %v", err)
	}
	if !compact {
		if len(got) < c.durable || len(got) > len(c.committed) || !slices.Equal(got, c.committed[:len(got)]) {
			return fmt.Errorf("replayed %q: not a prefix of %q at least %d long", got, c.committed, c.durable)
		}
	} else {
		live := liveSet(got)
		for i, r := range c.committed {
			k := r[1:]
			switch {
			case r[0] == '+' && i < c.durable && !live[k] && !slices.Contains(c.committed, "-"+k):
				return fmt.Errorf("durable add %s lost: live %v", r, live)
			case r[0] == '-' && i < c.durable && live[k]:
				return fmt.Errorf("item %s resurrected after its durable ack", k)
			}
		}
		for k := range live {
			if !slices.Contains(c.committed, "+"+k) {
				return fmt.Errorf("item %s recovered but never added", k)
			}
		}
	}

	opts := Options{Dir: dir, Format: testFormat,
		Replay:  func(int64, []byte) error { return nil },
		Stopped: func(Segment, []Segment, Stop) (bool, error) { return true, nil }}
	l, err := Open(opts)
	if err != nil {
		return err
	}
	if err := appendT(l, []byte("+99"), nil); err != nil {
		return err
	}
	if err := l.Close(); err != nil {
		return err
	}
	again, err := replayAll(dir)
	if err != nil {
		return err
	}
	if want := append(got, "+99"); !slices.Equal(again, want) {
		return fmt.Errorf("after an append to the recovered log replayed %q, want %q", again, want)
	}
	return nil
}

// TestCrashAtEveryOperation runs one sequence of appends, acks, syncs,
// rotations or compactions and a Close, under both rotation policies and
// both durability modes, and records its N file operations. Then, for
// every i from 0 to N and three seeds, it runs the sequence again with
// operation i+1 failing, cuts the power (CrashFS.Crash) and reopens what
// survives, which must satisfy the client's recovery model (check).
func TestCrashAtEveryOperation(t *testing.T) {
	for _, policy := range []string{"keep-history", "compact"} {
		for _, mode := range []struct {
			name     string
			interval time.Duration
		}{{"staged", time.Hour}, {"sync-per-append", 0}} {
			t.Run(policy+"/"+mode.name, func(t *testing.T) {
				compact := policy == "compact"
				dry := NewCrashFS(0)
				runCrashSequence(t.TempDir(), dry, compact, mode.interval)
				n := dry.Ops()
				for i := 0; i <= n; i++ {
					for seed := int64(1); seed <= 3; seed++ {
						dir := t.TempDir()
						fs := NewCrashFS(seed)
						fs.FailAt(i + 1)
						c := runCrashSequence(dir, fs, compact, mode.interval)
						_, _, err := fs.Crash()
						if err == nil {
							err = c.check(dir, compact)
						}
						if err != nil {
							t.Fatalf("seed %d, crash after operation %d of %d: %v", seed, i, n, err)
						}
					}
				}
			})
		}
	}
}

// TestTornTailCutIsDurable: Open cuts a torn tail off its segment and
// fsyncs the cut before it returns, so the records appended and fsynced
// behind it survive a power cut. A cut that was never fsynced could be
// undone by the crash, bringing the torn bytes back in front of those
// records, and the next Open would cut them off with the tail. The torn
// segment is on disk before Open, as the crash that tore it left it: the
// CrashFS is told of it first, which takes it as durable.
func TestTornTailCutIsDurable(t *testing.T) {
	whole, torn := frame(nil, []byte("+00")), frame(nil, []byte("+01"))
	for seed := int64(1); seed <= 8; seed++ {
		dir := t.TempDir()
		path := filepath.Join(dir, testFormat.Name(0))
		if err := os.WriteFile(path, append(whole, torn[:len(torn)-2]...), 0o644); err != nil {
			t.Fatal(err)
		}
		fs := NewCrashFS(seed)
		fs.lookup(path)
		l, err := Open(Options{Dir: dir, Format: testFormat, FS: fs,
			Replay:  func(int64, []byte) error { return nil },
			Stopped: func(Segment, []Segment, Stop) (bool, error) { return true, nil }})
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range []string{"+02", "+03"} {
			if err := appendT(l, []byte(body), nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := fs.Crash(); err != nil {
			t.Fatal(err)
		}
		got, err := replayAll(dir)
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"+00", "+02", "+03"}; !slices.Equal(got, want) {
			t.Fatalf("seed %d: replayed %q after the crash, want %q: the fsynced appends behind the cut are lost", seed, got, want)
		}
	}
}

// TestCompactionLeavesNewestSegments: a compaction that starts from two
// segments — an older one whose unlink an earlier crash lost, and the one
// that holds the ack of an add in it — unlinks them oldest first, each
// unlink made durable before the next. Crashing after each of its file
// operations, recovery never keeps the older segment without the newer,
// which would bring back the add its ack had retired.
func TestCompactionLeavesNewestSegments(t *testing.T) {
	older := slices.Concat(frame(nil, []byte("+00")), frame(nil, []byte("+01")))
	newer := slices.Concat(older, frame(nil, []byte("-00")), frame(nil, []byte("+02")))
	run := func(dir string, fs *CrashFS) {
		for i, data := range [][]byte{older, newer} {
			if err := os.WriteFile(filepath.Join(dir, testFormat.Name(i)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		c := &crashClient{live: map[string]bool{}}
		var err error
		c.l, err = Open(Options{Dir: dir, Format: testFormat, FS: fs, SegmentBytes: 40, Compact: c.compact,
			Replay: func(_ int64, framed []byte) error {
				if r := string(framed[HeaderSize:]); r[0] == '+' {
					c.live[r[1:]] = true
				} else {
					delete(c.live, r[1:])
				}
				return nil
			},
			Stopped: func(Segment, []Segment, Stop) (bool, error) { return true, nil }})
		if err != nil {
			return // the crash came first
		}
		c.record("+03") // its Sync compacts
		c.l.Close()
	}
	dry := NewCrashFS(0)
	run(t.TempDir(), dry)
	n := dry.Ops()
	for i := 0; i <= n; i++ {
		for seed := int64(1); seed <= 8; seed++ {
			dir := t.TempDir()
			fs := NewCrashFS(seed)
			fs.FailAt(i + 1)
			run(dir, fs)
			if _, _, err := fs.Crash(); err != nil {
				t.Fatal(err)
			}
			got, err := replayAll(dir)
			if err != nil {
				t.Fatal(err)
			}
			if live := liveSet(got); live["00"] || !live["01"] || !live["02"] {
				t.Fatalf("seed %d, crash after operation %d of %d: replayed %q, live %v: want 01 and 02 live, 00 retired by its ack", seed, i, n, got, live)
			}
		}
	}
}
