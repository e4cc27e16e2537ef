// Package seglog is the one segmented, CRC-framed append log under the
// broker's durable state. The relay's queue WAL (internal/relay/wal) and
// the audit journal (internal/audit) are clients: each owns its record
// body and what a record means; the frame, the segment files, the
// write/fsync discipline, fail-stop and rotation are here, once. Both
// clients read their bodies through one Reader: the WAL's record
// (wal.DecodeRecord) and the journal's (audit.DecodeRecord).
//
// One write path: an append (Begin … Commit) only stages its frame in
// memory, under the append lock. Sync is the one place the file is
// touched, under syncMu: it takes the staged batch, writes it with one
// write() and fsyncs it with the append lock released, so appends keep
// flowing while the disk catches up, then rotates a full segment. The
// two durability modes differ only in who calls Sync: with a positive
// SyncInterval a background flusher does, that often; with 0 the
// appender does, through Await once it has released the lock — a group
// commit: the append returns once an fsync covered it, and appenders
// that stage while one fsync runs share the next. An append is durable
// once it has been fsynced. Un-fsynced records MAY survive a crash (the
// OS got them to disk anyway) or be lost entirely (a staged append that
// never left the buffer); a crash mid-write leaves at most one short
// record at the tail. Close leaves nothing staged or unsynced.
//
// Fail-stop: the first I/O error makes the log sticky-failed — every
// later append and sync returns ErrFailed — and the files are never
// touched again, so what is on disk is exactly what the failure left
// for the next Open to recover. A crash test gets that error from a
// CrashFS at the file operation it chose.
//
// Every change to the directory goes through Options.FS; reads go to
// the os package. A segment's name is fsynced into the directory before
// a record in it can be durable: Open's first segment, a history
// rotation's next and a compaction's fresh one. A compaction fsyncs the
// directory again once it has unlinked the older segments.
//
// Recovery policy is the client's: Open replays what is on disk through
// the client's Replay and, wherever a segment's walk stops short, asks
// the client's Stopped whether that is a crash artifact to truncate, or
// damage to keep, count or refuse. seglog only reports where and why.
package seglog

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// ErrFailed wraps the cause in every error a failed log returns.
var ErrFailed = errors.New("seglog: log failed")

// Options parameterizes a Log.
type Options struct {
	// Dir holds the segments; Open creates it if needed.
	Dir    string
	Format Format
	// Replay (required, as is Stopped) receives every record already on
	// disk — offset within its segment and framed bytes — in order,
	// before Open returns.
	Replay func(off int64, framed []byte) error
	// Stopped is the recovery policy, asked wherever the replay of seg
	// stopped short of its end: stop.Err says why (a bad frame, or
	// Replay's own error), later lists the segments after seg. True
	// truncates seg at stop.Offset so appends resume at a clean boundary;
	// false leaves it and moves on; an error aborts Open.
	Stopped func(seg Segment, later []Segment, stop Stop) (truncate bool, err error)
	// SyncInterval selects the durability mode (see the package doc): 0
	// fsyncs every append before Await returns, a positive interval is
	// the flusher's period. Negative is refused.
	SyncInterval time.Duration
	// SegmentBytes is the size the active segment may reach before the
	// log rotates (0 = 4 MiB).
	SegmentBytes int64
	// FS is the write side of the disk (nil = the os package); a crash
	// test passes a CrashFS.
	FS FS
	// OnSync, when set, observes every successful fsync with its start
	// time and duration. It runs under syncMu and MUST NOT call back
	// into the Log.
	OnSync func(start time.Time, d time.Duration)
	// Compact is the rotation policy. Nil keeps history: the next
	// segment is opened, nothing deleted. Non-nil compacts: it writes to
	// w (a fresh segment) the framed records still worth keeping as of
	// every Commit so far, staged ones included, so the staged batch is
	// dropped; w is fsynced before it becomes authoritative, then every
	// older segment is deleted. Runs under the append lock.
	Compact func(w io.Writer) error
	// PreFlush, when set, runs under the append lock at the start of
	// every Sync, before the batch is taken — the place to stage a
	// record that must ride in this batch.
	PreFlush func()
}

// FS is the write side of the disk: every change the log makes to its
// directory. OpenFile takes os.OpenFile's flags and opens with mode
// 0o644.
type FS interface {
	OpenFile(path string, flag int) (File, error)
	SyncDir(dir string) error
	Remove(path string) error
}

// File is a segment open for writing; *os.File is one.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// osFS is FS on the os package.
type osFS struct{}

func (osFS) OpenFile(path string, flag int) (File, error) {
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (osFS) Remove(path string) error { return os.Remove(path) }

// Log is an open segment log. The embedded mutex is the append lock,
// and the client's lock too: it guards whatever per-record state the
// client keeps in step with the log, and Begin, Commit, Fail, Err, Index
// and Segments require it held.
type Log struct {
	opts Options

	// syncMu serializes Sync, the one writer of the file: f is only
	// read or replaced under it. It is acquired BEFORE the append lock,
	// never while holding it: the write and fsync run with the append
	// lock released, so appends keep flowing while the disk catches up.
	syncMu sync.Mutex
	f      File

	sync.Mutex
	first    int // lowest on-disk segment index
	index    int // active segment index
	segBytes int64
	stage    []byte // framed records awaiting the next Sync
	spare    []byte // recycled staging buffer (swapped with stage per Sync)
	err      error  // sticky failure

	stop chan struct{}
	wg   sync.WaitGroup
}

// Open replays the segments of opts.Dir (see Options.Replay and
// Options.Stopped), then opens the highest-numbered one — or creates
// the first — for appending.
func Open(opts Options) (*Log, error) {
	if opts.SyncInterval < 0 {
		return nil, fmt.Errorf("seglog: SyncInterval %v is negative", opts.SyncInterval)
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if opts.FS == nil {
		opts.FS = osFS{}
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := opts.Format.List(opts.Dir)
	if err != nil {
		return nil, err
	}
	for i, seg := range segs {
		path := filepath.Join(opts.Dir, seg.Name)
		stop, err := opts.Format.Walk(path, opts.Replay)
		if err != nil {
			return nil, err
		}
		if stop.Err == nil {
			continue
		}
		truncate, err := opts.Stopped(seg, segs[i+1:], stop)
		if err == nil && truncate {
			err = os.Truncate(path, stop.Offset)
		}
		if err != nil {
			return nil, err
		}
	}
	l := &Log{opts: opts, stop: make(chan struct{})}
	if len(segs) > 0 {
		l.first, l.index = segs[0].Index, segs[len(segs)-1].Index
	}
	path := l.path(l.index)
	f, err := opts.FS.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND)
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err == nil && len(segs) == 0 {
		err = opts.FS.SyncDir(opts.Dir) // the first segment's name
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	l.f, l.segBytes = f, fi.Size()
	if opts.SyncInterval > 0 {
		l.wg.Add(1)
		go l.flusher(l.stop)
	}
	return l, nil
}

func (l *Log) path(i int) string { return filepath.Join(l.opts.Dir, l.opts.Format.Name(i)) }

// Err returns the sticky failure, nil while the log is healthy.
func (l *Log) Err() error { return l.err }

// Index reports the active segment's index.
func (l *Log) Index() int { return l.index }

// Segments reports how many segments the log spans on disk.
func (l *Log) Segments() int { return l.index - l.first + 1 }

// Fail kills the log with err (no-op if it already failed) and returns
// the sticky error. Clients call it for failures of their own that must
// stop the log, e.g. a record that cannot be built.
func (l *Log) Fail(err error) error {
	if l.err == nil {
		l.err = fmt.Errorf("%w: %w", ErrFailed, err)
	}
	return l.err
}

// Begin starts one append and returns the staging buffer the client
// encodes exactly one frame onto (BeginFrame … EndFrame) and hands to
// Commit. A client whose encoder fails just never calls Commit.
func (l *Log) Begin() ([]byte, error) {
	if l.err != nil {
		return nil, l.err
	}
	return l.stage, nil
}

// Commit stages the frame encoded onto Begin's buffer and returns its
// framed bytes, valid until the lock is released. It touches no file:
// the next Sync writes it. A client whose Compact reads its own state
// must have brought that state up to date by then: any Sync may
// compact, and the compaction stands in for every committed record.
func (l *Log) Commit(buf []byte) []byte {
	framed := buf[len(l.stage):]
	l.stage = buf
	return framed
}

// Await is what an append calls once it has released the append lock.
// With SyncInterval 0 it is Sync: the append returns only once an fsync
// covered its record, and its error if that batch failed. With a
// positive interval it returns at once and the flusher covers the
// record.
func (l *Log) Await() error {
	if l.opts.SyncInterval > 0 {
		return nil
	}
	return l.Sync()
}

// Sync makes everything committed before the call durable: under
// syncMu it swaps out the staging buffer under the append lock, writes
// and fsyncs the batch with that lock released — appends keep flowing,
// they are simply not covered by this sync — and rotates a full segment.
// A caller that finds nothing staged returns at once: whatever it
// committed was written (or compacted) and fsynced by the Sync it
// waited behind, or that Sync failed the log and the sticky error
// answers.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.Lock()
	if l.err == nil && l.opts.PreFlush != nil {
		l.opts.PreFlush()
	}
	if l.err != nil || len(l.stage) == 0 {
		err := l.err
		l.Unlock()
		return err
	}
	batch := l.stage
	l.stage = l.spare[:0]
	l.spare = nil
	l.Unlock()

	written, err := l.f.Write(batch)

	l.Lock()
	if cap(batch) > cap(l.spare) {
		l.spare = batch[:0]
	}
	l.segBytes += int64(written)
	if err != nil {
		err = l.Fail(err)
	}
	l.Unlock()
	if err != nil {
		return err
	}

	start := time.Now()
	err = l.f.Sync()
	if err == nil && l.opts.OnSync != nil {
		l.opts.OnSync(start, time.Since(start))
	}

	l.Lock()
	defer l.Unlock()
	if err != nil {
		return l.Fail(err)
	}
	return l.maybeRotate()
}

// maybeRotate starts a fresh segment once the active one outgrows its
// budget, under the client's policy (see Options.Compact). Sync calls
// it right after an fsync, with nothing written since: the old segment
// is durable as it stands. A failure leaves the files as they are, a
// half-written fresh segment included: the next Open replays it after
// the history it stands in for.
func (l *Log) maybeRotate() error {
	if l.segBytes < l.opts.SegmentBytes {
		return nil
	}
	next := l.path(l.index + 1)
	if l.opts.Compact == nil {
		nf, err := l.opts.FS.OpenFile(next, os.O_CREATE|os.O_WRONLY|os.O_APPEND)
		if err != nil {
			return l.Fail(err)
		}
		if err := l.opts.FS.SyncDir(l.opts.Dir); err != nil {
			nf.Close()
			return l.Fail(err)
		}
		l.f.Close()
		l.f, l.segBytes = nf, 0
		l.index++
		return nil
	}
	nf, err := l.opts.FS.OpenFile(next, os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
	if err != nil {
		return l.Fail(err)
	}
	var fi os.FileInfo
	if err = l.opts.Compact(nf); err == nil {
		if err = nf.Sync(); err == nil {
			if err = l.opts.FS.SyncDir(l.opts.Dir); err == nil {
				fi, err = os.Stat(next)
			}
		}
	}
	if err != nil {
		nf.Close()
		return l.Fail(err)
	}
	// The new segment and its name are durable and hold the staged
	// records' effect; retire the history and the batch.
	l.f.Close()
	l.f, l.segBytes = nf, fi.Size()
	l.stage = l.stage[:0]
	l.index++
	for ; l.first < l.index; l.first++ {
		if err := l.opts.FS.Remove(l.path(l.first)); err != nil {
			return l.Fail(err)
		}
	}
	if err := l.opts.FS.SyncDir(l.opts.Dir); err != nil {
		return l.Fail(err)
	}
	return nil
}

func (l *Log) flusher(stop <-chan struct{}) {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			_ = l.Sync() // a failure is sticky; the next append reports it
		}
	}
}

// Close stops the flusher, writes and syncs the staged batch and
// releases the file. A failed log closes without touching the file
// again (Sync refuses): its on-disk state is whatever the failure left,
// and Close returns the sticky error.
func (l *Log) Close() error {
	l.Lock()
	if l.stop != nil {
		close(l.stop)
		l.stop = nil
	}
	l.Unlock()
	l.wg.Wait()
	err := l.Sync()
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}
