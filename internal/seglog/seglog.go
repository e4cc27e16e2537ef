// Package seglog is the one segmented, CRC-framed append log under the
// broker's durable state. The relay's queue WAL (internal/relay/wal) and
// the audit journal (internal/audit) are clients: each owns its record
// body and what a record means; the frame, the segment files, the
// write/fsync discipline, fail-stop and rotation are here, once.
//
// Durability contract: an append is durable once it has been fsynced.
// SyncInterval == 0 fsyncs every append before it returns; a positive
// interval stages appends in memory and a background flusher writes
// and fsyncs each batch that often; a negative interval writes inline
// and fsyncs only on Sync, rotation and Close. Un-fsynced records MAY
// survive a crash (the OS got them to disk anyway) or be lost entirely
// (a staged append that never left the buffer); a crash mid-write
// leaves at most one short record at the tail. Close leaves no
// written byte unsynced.
//
// Fail-stop: the first I/O error or injected fault makes the log
// sticky-failed — every later append and sync returns ErrFailed — and
// the files are never touched again, so what is on disk is exactly
// what the "crash" left for the next Open to recover.
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

// FaultPoint names an instant the fault-injection hook can observe (and
// kill the log at). The points bracket the two operations whose
// ordering recovery invariants depend on: the buffered write of a
// record and the fsync that makes it durable.
type FaultPoint int

// Fault points.
const (
	// BeforeAppend fires before a record's bytes are written (or, with
	// batched syncing, staged): a crash here loses the record entirely.
	BeforeAppend FaultPoint = iota
	// AfterAppend fires after the write but before any fsync: the record
	// is in the OS page cache (or, with batched syncing, the staging
	// buffer), durable only by luck.
	AfterAppend
	// BeforeSync fires on entry to fsync: everything written is still
	// only as durable as the page cache.
	BeforeSync
	// AfterSync fires after a successful fsync: everything appended so
	// far is durable.
	AfterSync
)

// String names the point for test output.
func (p FaultPoint) String() string {
	switch p {
	case BeforeAppend:
		return "before-append"
	case AfterAppend:
		return "after-append"
	case BeforeSync:
		return "before-sync"
	case AfterSync:
		return "after-sync"
	default:
		return fmt.Sprintf("fault-point-%d", int(p))
	}
}

// FaultFunc is the deterministic fault-injection hook: return a non-nil
// error to simulate the process dying at that point. The log goes
// sticky-failed, so the test can then reopen the directory and assert
// what recovery reconstructs from the bytes that made it to disk.
type FaultFunc func(p FaultPoint) error

// ErrInjected is a convenient error for FaultFunc implementations.
var ErrInjected = errors.New("seglog: injected crash")

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
	// SyncInterval selects the durability mode (see the package doc).
	SyncInterval time.Duration
	// SegmentBytes is the size the active segment may reach before the
	// log rotates (0 = 4 MiB).
	SegmentBytes int64
	// Faults is the deterministic fault-injection hook (nil = none).
	Faults FaultFunc
	// OnSync, when set, observes every successful fsync with its start
	// time and duration. It may run with log locks held and MUST NOT
	// call back into the Log.
	OnSync func(start time.Time, d time.Duration)
	// Compact is the rotation policy. Nil keeps history: the full
	// segment is fsynced, the next opened, nothing deleted. Non-nil
	// compacts: it writes the framed records still worth keeping to w (a
	// fresh segment), which is fsynced before it becomes authoritative;
	// then every older segment is deleted. Runs under the append lock.
	Compact func(w io.Writer) error
	// PreFlush, when set, runs under the append lock at the start of
	// every Sync and flusher pass, before the batch is taken — the place
	// to stage a record that must ride in this batch.
	PreFlush func()
}

// Log is an open segment log. The embedded mutex is the append lock,
// and the client's lock too: it guards whatever per-record state the
// client keeps in step with the log, and Begin, Commit, Fail, Err, Index
// and Segments require it held.
type Log struct {
	opts Options

	// syncMu serializes batched fsyncs (the flusher and Sync). It is
	// acquired BEFORE the append lock, never while holding it: the fsync
	// itself runs with the append lock released, so appends keep flowing
	// while the disk catches up — holding it across an fsync would turn
	// every flush interval into a log-wide stall.
	syncMu sync.Mutex

	sync.Mutex
	f        *os.File
	first    int // lowest on-disk segment index
	index    int // active segment index
	segBytes int64
	buf      []byte // inline mode: reusable encode buffer
	stage    []byte // staged mode: framed records awaiting the flusher
	spare    []byte // recycled staging buffer (swapped with stage per flush)
	dirty    bool   // written but not fsynced
	err      error  // sticky failure

	stop chan struct{}
	wg   sync.WaitGroup
}

// Open replays the segments of opts.Dir (see Options.Replay and
// Options.Stopped), then opens the highest-numbered one — or creates
// the first — for appending.
func Open(opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
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
	f, err := os.OpenFile(l.path(l.index), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
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

// fault runs the injection hook; a non-nil result kills the log.
func (l *Log) fault(p FaultPoint) error {
	if l.opts.Faults == nil {
		return nil
	}
	if err := l.opts.Faults(p); err != nil {
		return l.Fail(err)
	}
	return nil
}

// Begin starts one append and returns the buffer the client encodes
// exactly one frame onto (BeginFrame … EndFrame) and hands to Commit. A
// client whose encoder fails just never calls Commit.
func (l *Log) Begin() ([]byte, error) {
	if l.err != nil {
		return nil, l.err
	}
	if err := l.fault(BeforeAppend); err != nil {
		return nil, err
	}
	if l.opts.SyncInterval > 0 {
		return l.stage, nil
	}
	return l.buf[:0], nil
}

// Commit appends the frame encoded onto Begin's buffer and returns its
// framed bytes, valid until the lock is released. Staged mode keeps it
// in memory for the flusher (or Sync) to drain with one write() right
// before its fsync, so the append path costs an encode and nothing
// else. Inline mode writes it now, fsyncs when SyncInterval is 0, and
// rotates a full segment — so a client whose Compact reads its own
// state updates that state first. Any error means the log has failed.
func (l *Log) Commit(buf []byte) ([]byte, error) {
	if l.opts.SyncInterval > 0 {
		framed := buf[len(l.stage):]
		l.stage = buf
		return framed, l.fault(AfterAppend)
	}
	l.buf = buf
	n, err := l.f.Write(buf)
	l.segBytes += int64(n)
	if err != nil {
		return nil, l.Fail(err)
	}
	l.dirty = true
	if err := l.fault(AfterAppend); err != nil {
		return nil, err
	}
	if l.opts.SyncInterval == 0 {
		if err := l.fault(BeforeSync); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := l.f.Sync(); err != nil {
			return nil, l.Fail(err)
		}
		if l.opts.OnSync != nil {
			l.opts.OnSync(start, time.Since(start))
		}
		l.dirty = false
		if err := l.fault(AfterSync); err != nil {
			return nil, err
		}
	}
	return buf, l.maybeRotate()
}

// Sync makes everything appended before the call durable: it swaps out
// the staging buffer under the append lock, then writes and fsyncs with
// it released, so appends keep flowing while the disk catches up — they
// are simply not covered by this sync. Staged mode never touches the file outside
// syncMu, so the two syscalls cannot race anything. The post-fsync
// re-validation covers the inline modes, where an append can rotate
// the segment while a concurrent Sync is inside fsync: rotation made
// the old segment's contents durable before retiring it (compaction
// fsyncs the replacement before deleting anything, history-keeping
// fsyncs the old segment before opening the next), so both the result
// and any error from the stale file are moot.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.Lock()
	if l.err == nil && l.opts.PreFlush != nil {
		l.opts.PreFlush()
	}
	if l.err != nil || (len(l.stage) == 0 && !l.dirty) {
		err := l.err
		l.Unlock()
		return err
	}
	batch := l.stage
	l.stage = l.spare[:0]
	l.spare = nil
	f := l.f
	l.dirty = false
	l.Unlock()

	var written int
	var werr error
	if len(batch) > 0 {
		written, werr = f.Write(batch)
	}

	l.Lock()
	if cap(batch) > cap(l.spare) {
		l.spare = batch[:0]
	}
	l.segBytes += int64(written)
	if werr == nil {
		werr = l.fault(BeforeSync)
	} else {
		werr = l.Fail(werr)
	}
	l.Unlock()
	if werr != nil {
		return werr
	}

	start := time.Now()
	serr := f.Sync()
	if serr == nil && l.opts.OnSync != nil {
		l.opts.OnSync(start, time.Since(start))
	}

	l.Lock()
	defer l.Unlock()
	if l.f != f {
		return nil // rotated mid-sync; the synced file is retired
	}
	if serr != nil {
		l.dirty = true
		return l.Fail(serr)
	}
	if err := l.fault(AfterSync); err != nil {
		return err
	}
	return l.maybeRotate()
}

// maybeRotate starts a fresh segment once the active one outgrows its
// budget, under the client's policy (see Options.Compact).
func (l *Log) maybeRotate() error {
	if l.segBytes < l.opts.SegmentBytes {
		return nil
	}
	next := l.path(l.index + 1)
	if l.opts.Compact == nil {
		// History stays, so the old segment must be durable before the
		// log moves on: nothing will ever fsync it again.
		if err := l.f.Sync(); err != nil {
			return l.Fail(err)
		}
		nf, err := os.OpenFile(next, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return l.Fail(err)
		}
		l.f.Close()
		l.f, l.segBytes, l.dirty = nf, 0, false
		l.index++
		return nil
	}
	nf, err := os.OpenFile(next, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return l.Fail(err)
	}
	var fi os.FileInfo
	if err = l.opts.Compact(nf); err == nil {
		if err = nf.Sync(); err == nil {
			fi, err = nf.Stat()
		}
	}
	if err != nil {
		nf.Close()
		os.Remove(next)
		return l.Fail(err)
	}
	// The new segment is durable; retire the history.
	l.f.Close()
	l.f, l.segBytes, l.dirty = nf, fi.Size(), false
	l.index++
	for ; l.first < l.index; l.first++ {
		os.Remove(l.path(l.first))
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

// Close stops the flusher, writes and syncs pending appends — any
// staged batch, any inline write not yet fsynced — and releases the
// file. A failed log closes without touching the file again (Sync
// refuses): its on-disk state is whatever the "crash" left, and Close
// returns the sticky error.
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
	l.Lock()
	defer l.Unlock()
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}
