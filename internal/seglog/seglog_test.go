package seglog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
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

func appendT(l *Log, body []byte) error {
	l.Lock()
	defer l.Unlock()
	buf, err := l.Begin()
	if err != nil {
		return err
	}
	framed, err := l.Commit(frame(buf, body))
	if err == nil && !bytes.Equal(framed[HeaderSize:], body) {
		err = fmt.Errorf("Commit returned %x, not the frame of %x", framed, body)
	}
	return err
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

// TestRotateDuringSync: in the inline modes an append can rotate the
// segment while a concurrent Sync is inside fsync on the old file. The
// post-fsync re-validation must swallow the stale file's result under
// either rotation policy, and no record may be lost. Run under -race.
func TestRotateDuringSync(t *testing.T) {
	const n = 300
	for _, policy := range []string{"keep-history", "compact"} {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()
			var kept [][]byte // guarded by the log's lock
			opts := Options{Dir: dir, SyncInterval: -1, SegmentBytes: 128}
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
			for i := 0; i < n; i++ {
				body := []byte(fmt.Sprintf("record-%04d", i))
				l.Lock()
				kept = append(kept, body)
				l.Unlock()
				if err := appendT(l, body); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
			}
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
			openT(t, Options{Dir: dir, SyncInterval: -1}, &got).Close()
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

// TestCloseLeavesNothingUnsynced: a never-sync log still fsyncs what it
// wrote on Close, and a second Close is harmless.
func TestCloseLeavesNothingUnsynced(t *testing.T) {
	syncs := 0
	l := openT(t, Options{Dir: t.TempDir(), SyncInterval: -1,
		OnSync: func(time.Time, time.Duration) { syncs++ }}, nil)
	if err := appendT(l, []byte("written, not yet durable")); err != nil {
		t.Fatal(err)
	}
	if syncs != 0 {
		t.Fatalf("never-sync mode fsynced %d times on append", syncs)
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
	if err := appendT(l, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	armed = true
	if err := appendT(l, []byte("written, then the crash")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); !errors.Is(err, ErrInjected) || !errors.Is(err, ErrFailed) {
		t.Fatalf("Sync at the fault: %v", err)
	}
	before, _ := os.ReadFile(filepath.Join(dir, testFormat.Name(0)))
	if err := appendT(l, []byte("after")); !errors.Is(err, ErrFailed) {
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
				if err := appendT(l, []byte(body)); err != nil {
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
