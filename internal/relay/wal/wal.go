// Package wal is the crash-recovery backbone of the broker relay: an
// append-only, CRC-checked queue log that makes store-and-forward
// queues survive a broker restart. Every queue mutation is written
// behind the in-memory queues — KindAdd when an item is enqueued,
// KindAck when it is delivered, expires or is dropped — so replaying
// the log reconstructs exactly the set of undelivered items.
//
// Storage — the frame, the segment files, the write/fsync discipline,
// fail-stop and the durability contract — is internal/seglog; see its
// package doc. What is the WAL's own: recovery never loses an fsynced
// add, never resurrects an item whose ack was fsynced, and treats a torn
// or corrupt tail as the crash artifact it is: replay stops at the last
// valid record and the tail is truncated away. That un-fsynced records
// may or may not survive is safe because the relay is at-least-once and
// the recipient's replay guard deduplicates (see SECURITY.md, "Durable
// queue trust model").
//
// Rotation is compaction: when the active segment outgrows SegmentBytes
// the live records are rewritten into a fresh segment and every older
// segment is deleted, so disk usage tracks the live queue, not lifetime
// traffic.
package wal

import (
	"errors"
	"io"
	"sort"
	"time"

	"jxtaoverlay/internal/seglog"
)

// FaultPoint names an instant the fault-injection hook can observe (and
// kill the log at); see seglog.FaultPoint.
type FaultPoint = seglog.FaultPoint

// Fault points.
const (
	BeforeAppend = seglog.BeforeAppend
	AfterAppend  = seglog.AfterAppend
	BeforeSync   = seglog.BeforeSync
	AfterSync    = seglog.AfterSync
)

// FaultFunc is the deterministic fault-injection hook: a non-nil return
// kills the log at that point (every later append or sync fails with
// ErrLogFailed); see seglog.FaultFunc.
type FaultFunc = seglog.FaultFunc

// ErrInjected is a convenient error for FaultFunc implementations.
var ErrInjected = seglog.ErrInjected

// ErrLogFailed is returned by appends after the log has failed (an
// injected crash or a real I/O error). The in-memory relay keeps
// working; the WAL just stops being written, exactly like a dying disk.
var ErrLogFailed = seglog.ErrFailed

// Options parameterizes a Log.
type Options struct {
	// Dir is the directory holding the segments. Empty disables the WAL
	// entirely (the relay runs in-memory, the pre-durability behaviour).
	Dir string
	// SyncInterval batches fsyncs: 0 syncs every append before it
	// returns (full durability, one fsync per record); a positive value
	// stages appends in memory and starts a background flusher that
	// writes each staged batch with one write() and fsyncs it that
	// often, keeping both syscalls off the append path; a negative
	// value writes inline but never syncs automatically (tests).
	SyncInterval time.Duration
	// SegmentBytes is the size the active segment may reach before the
	// log compacts into a fresh one (0 = 4 MiB).
	SegmentBytes int64
	// Faults is the deterministic fault-injection hook (nil = none).
	Faults FaultFunc
	// OnSync, when set, observes every successful fsync with its start
	// time and duration — the relay's tracer uses it to attribute
	// fsync-wait to the traces staged behind that sync. The callback
	// may run with log locks held and MUST NOT call back into the Log.
	OnSync func(start time.Time, d time.Duration)
}

// RecoveryStats reports what replay found.
type RecoveryStats struct {
	// Live is how many adds survived replay (no ack seen).
	Live int
	// Acked is how many adds were discarded because an ack retired them
	// — the "delivered/expired while down must not resurrect" guard.
	Acked int
	// TornBytes is how many trailing bytes were truncated off the final
	// segment (a crash mid-append).
	TornBytes int64
	// CorruptSegments counts non-final segments whose replay stopped
	// early on a corrupt record (disk damage, not a crash artifact).
	CorruptSegments int
}

// Log is an open write-ahead queue log.
type Log struct {
	log *seglog.Log // its append lock guards the fields below

	buf     []byte // compaction's reusable encode buffer
	nextSeq Seq
	live    map[Seq]Record // undelivered adds, for compaction
}

// Open replays the segments in dir (creating it if needed), returning
// the log ready for appends plus the recovered live records and replay
// stats. Live records come back sorted by sequence number — enqueue
// order — with payloads copied out of the read buffer.
//
// A torn or corrupt record in the FINAL segment is a crash artifact:
// replay stops there and the tail is truncated so new appends start at
// a clean boundary. The same damage mid-way through an earlier segment
// cannot come from a crash (later segments were created after it) —
// replay still keeps everything before the damage but counts the
// segment so callers can surface the tampering.
func Open(opts Options) (*Log, []Record, RecoveryStats, error) {
	var stats RecoveryStats
	if opts.Dir == "" {
		return nil, nil, stats, errors.New("wal: Options.Dir is required")
	}
	l := &Log{live: make(map[Seq]Record), nextSeq: 1}
	replay := func(_ int64, framed []byte) error {
		rec, err := decodeBody(framed[seglog.HeaderSize:])
		if err != nil {
			return err
		}
		switch rec.Kind {
		case KindAdd:
			l.live[rec.Seq] = rec
		case KindAck:
			if _, ok := l.live[rec.Seq]; ok {
				delete(l.live, rec.Seq)
				stats.Acked++
			}
		}
		if rec.Seq >= l.nextSeq {
			l.nextSeq = rec.Seq + 1
		}
		return nil
	}
	stopped := func(_ seglog.Segment, later []seglog.Segment, stop seglog.Stop) (bool, error) {
		if len(later) > 0 {
			stats.CorruptSegments++
			return false, nil
		}
		stats.TornBytes += stop.Size - stop.Offset
		return true, nil
	}
	var err error
	l.log, err = seglog.Open(seglog.Options{
		Dir: opts.Dir, Format: format, Replay: replay, Stopped: stopped,
		SyncInterval: opts.SyncInterval, SegmentBytes: opts.SegmentBytes,
		Faults: opts.Faults, OnSync: opts.OnSync,
		Compact: l.compact,
	})
	if err != nil {
		return nil, nil, stats, err
	}

	recovered := make([]Record, 0, len(l.live))
	for _, rec := range l.live {
		rec.Payload = append([]byte(nil), rec.Payload...)
		recovered = append(recovered, rec)
	}
	sort.Slice(recovered, func(i, j int) bool { return recovered[i].Seq < recovered[j].Seq })
	// The live map must not alias the replay buffers either.
	for _, rec := range recovered {
		l.live[rec.Seq] = rec
	}
	stats.Live = len(recovered)
	return l, recovered, stats, nil
}

// AppendAdd persists one enqueued item and returns its sequence number.
// With SyncInterval == 0 the record is fsynced before returning — the
// caller may then report the item as accepted-durable. The payload is
// retained (for compaction) until the matching AppendAck; the caller
// must not mutate it in between.
func (l *Log) AppendAdd(rec Record) (Seq, error) {
	l.log.Lock()
	defer l.log.Unlock()
	rec.Kind = KindAdd
	rec.Seq = l.nextSeq
	if err := l.appendLocked(rec); err != nil {
		return 0, err
	}
	return rec.Seq, nil
}

// AppendAck retires a previously appended item. Acks for sequence 0
// (items that were never persisted, e.g. because the disk died) are
// silently ignored.
func (l *Log) AppendAck(seq Seq, reason AckReason) error {
	if seq == 0 {
		return nil
	}
	l.log.Lock()
	defer l.log.Unlock()
	return l.appendLocked(Record{Kind: KindAck, Seq: seq, Reason: reason})
}

// appendLocked encodes rec straight into the log's buffer and commits
// it. The live set is brought up to date BEFORE the commit because a
// commit that fills the segment compacts on the spot, and the
// compaction must carry an add just written and drop one just acked; a
// commit that fails leaves the log dead, so the set is never read again.
func (l *Log) appendLocked(rec Record) error {
	buf, err := l.log.Begin()
	if err != nil {
		return err
	}
	if buf, err = AppendRecord(buf, rec); err != nil {
		return err
	}
	if rec.Kind == KindAdd {
		l.nextSeq++
		l.live[rec.Seq] = rec
	} else {
		delete(l.live, rec.Seq)
	}
	_, err = l.log.Commit(buf)
	return err
}

// compact is the rotation policy (seglog.Options.Compact): the fresh
// segment holds only undelivered adds, in enqueue order — delivered and
// expired records are reclaimed here.
func (l *Log) compact(w io.Writer) error {
	seqs := make([]Seq, 0, len(l.live))
	for seq := range l.live {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		var err error
		if l.buf, err = AppendRecord(l.buf[:0], l.live[seq]); err != nil {
			return err
		}
		if _, err = w.Write(l.buf); err != nil {
			return err
		}
	}
	return nil
}

// Sync forces an fsync of everything appended before the call. Unlike
// the append-synchronous path (SyncInterval == 0), the fsync runs with
// the append lock released, so concurrent appends are not stalled —
// they are simply not covered by this sync.
func (l *Log) Sync() error { return l.log.Sync() }

// Close writes and syncs pending appends — including any staged batch
// — then releases the file; a failed log just reports its failure.
func (l *Log) Close() error { return l.log.Close() }

// SegmentIndex reports the active segment's index (tests).
func (l *Log) SegmentIndex() int {
	l.log.Lock()
	defer l.log.Unlock()
	return l.log.Index()
}
