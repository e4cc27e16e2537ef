package seglog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var testFormat = Format{Prefix: "t-", Suffix: ".log", MinBody: 1, MaxBody: 1 << 16}

func frame(dst, body []byte) []byte {
	start := len(dst)
	dst = append(BeginFrame(dst), body...)
	return EndFrame(dst, start)
}

// openT opens dir with the plainest recovery policy: collect every
// record, truncate whatever stops a walk.
func openT(t *testing.T, opts Options, got *[][]byte) *Log {
	t.Helper()
	opts.Format = testFormat
	opts.Replay = func(_ int64, framed []byte) error {
		if got != nil {
			*got = append(*got, append([]byte(nil), framed[HeaderSize:]...))
		}
		return nil
	}
	opts.Stopped = func(Segment, []Segment, Stop) (bool, error) { return true, nil }
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// appendT appends body as a client does: stage it under the lock (and,
// when kept is not nil, add it to the client state kept, which a test's
// Compact writes), then Await with the lock released.
func appendT(l *Log, body []byte, kept *[][]byte) error {
	l.Lock()
	buf, err := l.Begin()
	if err == nil {
		if framed := l.Commit(frame(buf, body)); !bytes.Equal(framed[HeaderSize:], body) {
			err = fmt.Errorf("Commit returned %x, not the frame of %x", framed, body)
		}
		if kept != nil {
			*kept = append(*kept, body)
		}
	}
	l.Unlock()
	if err != nil {
		return err
	}
	return l.Await()
}

// TestListStrict: only a name that is exactly the canonical name of the
// index it parses to is a segment.
func TestListStrict(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{
		"t-00000000.log", "t-00000003.log", "t-123456789.log", // segments
		"t-00000003.log.bak", "t-7.tmp", "t-00000000.log~", "t-7.log",
		"t--0000001.log", "t-+0000001.log", "t-0000000a.log", "u-00000001.log", "t-.log",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := testFormat.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, seg := range segs {
		if seg.Name != testFormat.Name(seg.Index) || seg.Size != 1 {
			t.Fatalf("segment %+v: name or size wrong", seg)
		}
		got = append(got, seg.Index)
	}
	if fmt.Sprint(got) != "[0 3 123456789]" {
		t.Fatalf("listed %v, want [0 3 123456789]", got)
	}
}

// TestWalkStopReasons: a walk reports where it stopped and why, and
// classifies a bad frame as short (all a crash can leave) or corrupt.
func TestWalkStopReasons(t *testing.T) {
	var data []byte
	var offs []int64
	for i := 0; i < 3; i++ {
		offs = append(offs, int64(len(data)))
		data = frame(data, bytes.Repeat([]byte{byte('a' + i)}, 10+i))
	}
	errFn := errors.New("client says no")
	implausible := append(append([]byte(nil), data[:offs[2]]...), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0)
	flipped := append([]byte(nil), data...)
	flipped[offs[1]+HeaderSize+2] ^= 0x10
	cases := []struct {
		name   string
		data   []byte
		failAt int64 // offset at which fn returns errFn (-1 = never)
		stop   int64
		err    error
	}{
		{"clean", data, -1, int64(len(data)), nil},
		{"empty", nil, -1, 0, nil},
		{"torn-body", data[:len(data)-3], -1, offs[2], ErrShort},
		{"torn-header", data[:offs[2]+5], -1, offs[2], ErrShort},
		{"bit-flip", flipped, -1, offs[1], ErrCorrupt},
		{"implausible-length", implausible, -1, offs[2], ErrCorrupt},
		{"fn-error", data, offs[1], offs[1], errFn},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "seg")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			next := int64(0)
			stop, err := testFormat.Walk(path, func(off int64, framed []byte) error {
				if off != next {
					t.Fatalf("record at %d, want %d", off, next)
				}
				next += int64(len(framed))
				if off == tc.failAt {
					return errFn
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if stop.Offset != tc.stop || stop.Size != int64(len(tc.data)) || !errors.Is(stop.Err, tc.err) || (tc.err == nil) != (stop.Err == nil) {
				t.Fatalf("stop %+v, want offset %d of %d with %v", stop, tc.stop, len(tc.data), tc.err)
			}
		})
	}
	if _, err := testFormat.Walk(filepath.Join(t.TempDir(), "missing"), nil); err == nil {
		t.Fatal("walking a missing file must be an I/O error, not a stop")
	}
}

// TestRotateDuringSync: at SyncInterval 0 two appenders each run a Sync
// per append while another goroutine calls Sync in a loop, and a 128-byte
// budget makes nearly every Sync rotate. Rotation runs only inside Sync,
// under either policy, and no record may be lost. Run under -race.
func TestRotateDuringSync(t *testing.T) {
	const n = 300
	for _, policy := range []string{"keep-history", "compact"} {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()
			var kept [][]byte // guarded by the log's lock
			opts := Options{Dir: dir, SegmentBytes: 128}
			if policy == "compact" {
				opts.Compact = func(w io.Writer) error {
					for _, body := range kept {
						if _, err := w.Write(frame(nil, body)); err != nil {
							return err
						}
					}
					return nil
				}
			}
			l := openT(t, opts, nil)
			var wg sync.WaitGroup
			done := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if err := l.Sync(); err != nil {
						t.Errorf("Sync racing a rotation: %v", err)
						return
					}
				}
			}()
			// Two appenders, so a record is often staged while a Sync
			// writes and compacts.
			var appenders sync.WaitGroup
			for a := 0; a < 2; a++ {
				appenders.Add(1)
				go func() {
					defer appenders.Done()
					for i := a; i < n; i += 2 {
						body := []byte(fmt.Sprintf("record-%04d", i))
						if err := appendT(l, body, &kept); err != nil {
							t.Errorf("append %d: %v", i, err)
							return
						}
					}
				}()
			}
			appenders.Wait()
			close(done)
			wg.Wait()
			l.Lock()
			rotated := l.Index()
			segments := l.Segments()
			l.Unlock()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if rotated == 0 {
				t.Fatal("never rotated")
			}
			if policy == "compact" && segments != 1 {
				t.Fatalf("compaction left %d segments", segments)
			}
			if policy == "keep-history" && segments != rotated+1 {
				t.Fatalf("history-keeping rotation kept %d of %d segments", segments, rotated+1)
			}
			var got [][]byte
			openT(t, Options{Dir: dir}, &got).Close()
			if len(got) != n {
				t.Fatalf("replayed %d of %d records", len(got), n)
			}
			for i, body := range got {
				if !bytes.Equal(body, kept[i]) {
					t.Fatalf("record %d is %q, want %q", i, body, kept[i])
				}
			}
		})
	}
}

// TestCompactionStandsInForTheStage: a record staged while a Sync
// writes is in the client state a compaction right after that Sync
// writes out, so the compaction drops the stage instead of letting the
// next Sync write the record a second time. The client's state here is
// a count, compacted to one short record that leaves the fresh segment
// under its budget, so a record written twice would stay on disk.
func TestCompactionStandsInForTheStage(t *testing.T) {
	dir := t.TempDir()
	committed := 0 // the client state; guarded by the log's lock
	var l *Log
	stage := func(body string) error {
		l.Lock()
		buf, err := l.Begin()
		if err == nil {
			l.Commit(frame(buf, []byte(body)))
			committed++
		}
		l.Unlock()
		return err
	}
	staged := false
	l = openT(t, Options{Dir: dir, SyncInterval: time.Hour, SegmentBytes: 100,
		Compact: func(w io.Writer) error {
			_, err := w.Write(frame(nil, []byte(fmt.Sprintf("%d records", committed))))
			return err
		},
		OnSync: func(time.Time, time.Duration) {
			// After the first batch's write, before its rotation, with the
			// append lock free.
			if !staged {
				staged = true
				if err := stage("staged behind the first batch"); err != nil {
					t.Error(err)
				}
			}
		}}, nil)
	for i := 0; i < 3; i++ {
		if err := stage(fmt.Sprintf("record %d of the first batch....", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	openT(t, Options{Dir: dir}, &got).Close()
	if len(got) != 1 || string(got[0]) != "4 records" {
		t.Fatalf("replayed %q, want the one compacted record of 4", got)
	}
}

// TestCloseLeavesNothingUnsynced: a staged batch the flusher has not
// reached yet touches no file until Close writes and fsyncs it, and a
// second Close is harmless.
func TestCloseLeavesNothingUnsynced(t *testing.T) {
	dir := t.TempDir()
	syncs := 0
	l := openT(t, Options{Dir: dir, SyncInterval: time.Hour,
		OnSync: func(time.Time, time.Duration) { syncs++ }}, nil)
	for _, body := range []string{"staged", "not yet durable"} {
		if err := appendT(l, []byte(body), nil); err != nil {
			t.Fatal(err)
		}
	}
	if fi, err := os.Stat(filepath.Join(dir, testFormat.Name(0))); err != nil || fi.Size() != 0 || syncs != 0 {
		t.Fatalf("a staged append reached the file (%v, err %v) or fsynced %d times", fi, err, syncs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if syncs != 1 {
		t.Fatalf("Close fsynced %d times, want 1", syncs)
	}
	if err := l.Close(); err != nil || syncs != 1 {
		t.Fatalf("second Close: err %v, %d syncs", err, syncs)
	}
	var got [][]byte
	openT(t, Options{Dir: dir}, &got).Close()
	if len(got) != 2 {
		t.Fatalf("recovered %d records, want the staged batch of 2", len(got))
	}
}

// TestDurableAppendsShareOneFsync: at SyncInterval 0 an append returns
// only once an fsync covered its record; appenders that stage while an
// fsync runs share the next one; and when that shared fsync fails,
// every appender in its batch gets the error and none gets nil. The
// first appender's fsync is held (in OnSync) until the others have
// staged, so the batches are fixed: one record, then the rest.
func TestDurableAppendsShareOneFsync(t *testing.T) {
	const n = 8
	for _, fail := range []bool{false, true} {
		t.Run(map[bool]string{false: "ok", true: "failed-fsync"}[fail], func(t *testing.T) {
			dir := t.TempDir()
			var begun, fsyncs atomic.Int32
			staged, held := make(chan struct{}), make(chan struct{})
			durable := map[string]bool{} // bodies on disk at an AfterSync; under the log's lock
			l := openT(t, Options{Dir: dir, Faults: func(p FaultPoint) error {
				switch p {
				case BeforeAppend:
					if begun.Add(1) == n {
						close(staged)
					}
				case BeforeSync:
					if fail && fsyncs.Load() == 1 {
						return ErrInjected
					}
				case AfterSync:
					fsyncs.Add(1)
					if _, err := testFormat.Walk(filepath.Join(dir, testFormat.Name(0)), func(_ int64, framed []byte) error {
						durable[string(framed[HeaderSize:])] = true
						return nil
					}); err != nil {
						return err
					}
				}
				return nil
			}, OnSync: func(time.Time, time.Duration) {
				if fsyncs.Load() == 0 {
					close(held)
					select {
					case <-staged:
					case <-time.After(10 * time.Second):
						t.Error("the other appenders never staged")
					}
				}
			}}, nil)
			defer l.Close()

			errs := make([]error, n)
			var wg sync.WaitGroup
			run := func(i int) {
				defer wg.Done()
				body := fmt.Sprintf("record-%d", i)
				if errs[i] = appendT(l, []byte(body), nil); errs[i] == nil {
					l.Lock()
					if !durable[body] {
						errs[i] = fmt.Errorf("%s returned before an fsync covered it", body)
					}
					l.Unlock()
				}
			}
			wg.Add(n)
			go run(0)
			<-held // record-0's fsync is in progress
			for i := 1; i < n; i++ {
				go run(i)
			}
			wg.Wait()
			if errs[0] != nil {
				t.Fatalf("the first appender, alone in its batch: %v", errs[0])
			}
			for i, err := range errs[1:] {
				if fail && (!errors.Is(err, ErrInjected) || !errors.Is(err, ErrFailed)) {
					t.Fatalf("appender %d of the failed batch got %v", i+1, err)
				}
				if !fail && err != nil {
					t.Fatalf("appender %d: %v", i+1, err)
				}
			}
			if want := map[bool]int32{false: 2, true: 1}[fail]; fsyncs.Load() != want {
				t.Fatalf("%d fsyncs for %d appends, want %d", fsyncs.Load(), n, want)
			}
		})
	}
}

// TestNegativeSyncIntervalRefused: there is no never-fsync mode.
func TestNegativeSyncIntervalRefused(t *testing.T) {
	opts := Options{Dir: t.TempDir(), Format: testFormat, SyncInterval: -1,
		Replay:  func(int64, []byte) error { return nil },
		Stopped: func(Segment, []Segment, Stop) (bool, error) { return true, nil }}
	if l, err := Open(opts); err == nil {
		l.Close()
		t.Fatal("Open accepted a negative SyncInterval")
	}
}

// TestFailStopTouchesNothing: after the first failure every operation
// returns the sticky error and the files stay exactly as the "crash"
// left them — staged records included.
func TestFailStopTouchesNothing(t *testing.T) {
	dir := t.TempDir()
	armed := false
	l := openT(t, Options{Dir: dir, SyncInterval: time.Hour, Faults: func(p FaultPoint) error {
		if armed && p == BeforeSync {
			return ErrInjected
		}
		return nil
	}}, nil)
	if err := appendT(l, []byte("durable"), nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	armed = true
	if err := appendT(l, []byte("written, then the crash"), nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); !errors.Is(err, ErrInjected) || !errors.Is(err, ErrFailed) {
		t.Fatalf("Sync at the fault: %v", err)
	}
	before, _ := os.ReadFile(filepath.Join(dir, testFormat.Name(0)))
	if err := appendT(l, []byte("after"), nil); !errors.Is(err, ErrFailed) {
		t.Fatalf("append after failure: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrFailed) {
		t.Fatalf("Sync after failure: %v", err)
	}
	if err := l.Close(); !errors.Is(err, ErrFailed) {
		t.Fatalf("Close after failure: %v", err)
	}
	after, _ := os.ReadFile(filepath.Join(dir, testFormat.Name(0)))
	if !bytes.Equal(before, after) {
		t.Fatal("a failed log wrote to its segment")
	}
	var got [][]byte
	openT(t, Options{Dir: dir}, &got).Close()
	if len(got) != 2 {
		t.Fatalf("recovered %d records, want the fsynced one and the written one", len(got))
	}
}

// TestDamageHelpers: Last finds the final segment's last record; Tear
// leaves a short record there and FlipBit a corrupt one.
func TestDamageHelpers(t *testing.T) {
	for _, damage := range []string{"tear", "flip"} {
		t.Run(damage, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := testFormat.Last(dir); !errors.Is(err, ErrNoRecords) {
				t.Fatalf("Last on an empty dir: %v", err)
			}
			l := openT(t, Options{Dir: dir}, nil)
			for _, body := range []string{"first", "second", "third"} {
				if err := appendT(l, []byte(body), nil); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			loc, err := testFormat.Last(dir)
			if err != nil {
				t.Fatal(err)
			}
			want := error(ErrShort)
			if damage == "tear" {
				err = loc.Tear(dir)
			} else {
				err, want = loc.FlipBit(dir), ErrCorrupt
			}
			if err != nil {
				t.Fatal(err)
			}
			stop, err := testFormat.Walk(filepath.Join(dir, loc.Segment), func(int64, []byte) error { return nil })
			if err != nil || stop.Offset != loc.Offset || !errors.Is(stop.Err, want) {
				t.Fatalf("walk after %s: stop %+v err %v, want %v at %d", damage, stop, err, want, loc.Offset)
			}
		})
	}
}
