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
// Rotation is compaction: when the active segment outgrows seglog's
// segment budget (4 MiB) the live records are rewritten into a fresh
// segment and every older segment is deleted, so disk usage tracks the
// live queue, not lifetime traffic.
package wal

import (
	"errors"
	"io"
	"sort"
	"time"

	"jxtaoverlay/internal/seglog"
)

// Options parameterizes a Log.
type Options struct {
	// Dir is the directory holding the segments. Empty disables the WAL
	// entirely (the relay runs in-memory, the pre-durability behaviour).
	Dir string
	// SyncInterval is seglog's durability mode: 0 returns from every
	// append once an fsync covered it (appenders that meet share one);
	// a positive value is the period of a background flusher that
	// writes and fsyncs each staged batch, keeping both syscalls off
	// the append path. Negative is refused.
	SyncInterval time.Duration
	// Faults is the deterministic fault-injection hook (nil = none).
	Faults seglog.FaultFunc
	// OnSync, when set, observes every successful fsync with its start
	// time and duration — the relay's tracer uses it to attribute
	// fsync-wait to the traces staged behind that sync. The callback
	// runs with the log's sync lock held and MUST NOT call back into
	// the Log.
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
		SyncInterval: opts.SyncInterval, Faults: opts.Faults, OnSync: opts.OnSync,
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
// With SyncInterval 0 it returns once an fsync covered the record — the
// caller may then report the item as accepted-durable — or with the
// error of the batch that failed. The payload is retained (for
// compaction) until the matching AppendAck; the caller must not mutate
// it in between.
func (l *Log) AppendAdd(rec Record) (Seq, error) {
	rec.Kind = KindAdd
	return l.append(rec)
}

// AppendAck retires a previously appended item, durably as AppendAdd.
// Acks for sequence 0 (items that were never persisted, e.g. because
// the disk died) are silently ignored.
func (l *Log) AppendAck(seq Seq, reason AckReason) error {
	if seq == 0 {
		return nil
	}
	_, err := l.append(Record{Kind: KindAck, Seq: seq, Reason: reason})
	return err
}

// append stages rec (an add under the next sequence number) in the log,
// keeping the live set in step with it — any Sync may compact, and the
// compaction must carry an add just staged and drop one just acked —
// then awaits its fsync with the lock released.
func (l *Log) append(rec Record) (Seq, error) {
	l.log.Lock()
	buf, err := l.log.Begin()
	if err == nil {
		if rec.Kind == KindAdd {
			rec.Seq = l.nextSeq
		}
		buf, err = AppendRecord(buf, rec)
	}
	if err == nil {
		if rec.Kind == KindAdd {
			l.nextSeq++
			l.live[rec.Seq] = rec
		} else {
			delete(l.live, rec.Seq)
		}
		l.log.Commit(buf)
	}
	l.log.Unlock()
	if err == nil {
		err = l.log.Await()
	}
	if err != nil {
		return 0, err
	}
	return rec.Seq, nil
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

// Sync writes and fsyncs everything appended before the call, with the
// append lock released, so concurrent appends are not stalled — they
// are simply not covered by this sync.
func (l *Log) Sync() error { return l.log.Sync() }

// Close writes and syncs pending appends — including any staged batch
// — then releases the file; a failed log just reports its failure.
func (l *Log) Close() error { return l.log.Close() }
