// Package audit is the broker's tamper-evident security event journal:
// an append-only, hash-chained log of every security-relevant decision
// the stack makes — offenses, admission refusals, relay drops, WAL
// errors, replay/verify/open failures, login and renew outcomes,
// federation presence transitions — durable across restarts and
// verifiable after the fact.
//
// Tamper evidence has three layers. Each record is CRC-framed (against
// accidental damage) and carries the SHA-256 of its predecessor's full
// framed bytes, so the journal is a hash chain: flipping a bit,
// reordering records or splicing segments breaks the chain at an exact
// byte offset. Periodically the chain is sealed by a checkpoint record
// whose payload is a broker-signed XMLdsig attestation of (chain head,
// record count, timestamp) — the same signature shape and credential
// chain advertisements use — so a forged chain rewrite needs the
// broker's private key, and a truncation past a checkpoint the auditor
// has seen is provable rollback. Verify replays the whole journal and
// reports the first bad segment+offset; see SECURITY.md, "Audit trust
// model", for exactly what each layer does and does not prove.
//
// Storage — the frame, the segment files, the write/fsync discipline,
// fail-stop and the durability contract — is internal/seglog, shared
// with the relay WAL; see its package doc. The journal's rotation policy
// is seglog's history-keeping one, deliberately: the WAL compacts
// because it tracks live queue state; an audit journal's whole point is
// history, so outgrowing SegmentBytes just starts a fresh segment and
// the old ones stay, hash-chained across the boundary.
package audit

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/seglog"
)

// Event kinds. The vocabulary is part of the operational surface
// (queries filter on it); extend it, don't repurpose it.
const (
	// KindOffense: an out-of-band refusal fed into offender tracking
	// (relay quota rejections and similar).
	KindOffense = "offense"
	// KindAlert: a SecurityAlert was raised (offense streak crossed the
	// admission threshold, or a client-side open failure).
	KindAlert = "alert"
	// KindRateLimited: admission control refused an operation.
	KindRateLimited = "rate-limited"
	// KindRelayDrop: the relay shed a slice (quota or overflow).
	KindRelayDrop = "relay-drop"
	// KindWALError: the relay WAL failed to log a queue mutation.
	KindWALError = "wal-error"
	// KindOpenFail: a secure envelope failed verification/open at a
	// receiving peer (replay, tampering, unknown sender...).
	KindOpenFail = "open-fail"
	// KindLogin: a secureLogin outcome (reason "ok" or the error token).
	KindLogin = "login"
	// KindRenew: a credential renewal outcome.
	KindRenew = "renew"
	// KindPeerUp / KindPeerDown: presence transitions, local and
	// federated.
	KindPeerUp   = "peer-up"
	KindPeerDown = "peer-down"
	// KindHeartbeat: a presence-lease heartbeat outcome (reason "ok"
	// or the refusal token — a replayed or stale heartbeat lands here).
	KindHeartbeat = "heartbeat"
	// KindChannel: a session-channel event at a client — a handshake
	// outcome (op "offer" at the responder, "accept" at the initiator), a
	// channel dropped on a refusal (op "refusal") or the message sent
	// again as an envelope after it (op "fallback"). Never per message.
	KindChannel = "channel"
	// KindIdemDedup: a retried mutating op was answered from the
	// idempotency dedup window instead of re-executing.
	KindIdemDedup = "idem-dedup"
)

// Event is one security event to be journaled. Strings beyond the
// codec's field bound are truncated, never rejected — an audit path
// must not refuse to record an event because an attacker padded a
// field.
type Event struct {
	Kind   string
	Peer   string
	Op     string
	Reason string
	Trace  uint64
}

// ErrJournalFailed is returned by Sync/Close after the journal has
// failed (an I/O error). Appends after a failure are silently counted
// as lost — the security surface keeps working; the journal just stops
// being written, exactly like a dying disk.
var ErrJournalFailed = seglog.ErrFailed

// ErrJournalDamaged is returned by Open when a non-final segment (or a
// non-tail region) fails to replay. Unlike the relay WAL, the journal
// refuses to append onto a broken chain: damage beyond a crash's torn
// tail is evidence, and evidence wants Verify, not overwriting.
var ErrJournalDamaged = errors.New("audit: journal damaged")

// Options parameterizes a Journal.
type Options struct {
	// Dir is the directory holding the segments (required).
	Dir string
	// SyncInterval batches fsyncs exactly like the relay WAL: 0 syncs
	// every append before it returns; a positive value stages appends
	// in memory and a background flusher writes+fsyncs each batch that
	// often; a negative value writes inline but never syncs (tests).
	SyncInterval time.Duration
	// SegmentBytes is the size the active segment may reach before a
	// fresh one is started (0 = 4 MiB). Old segments are never deleted.
	SegmentBytes int64
	// CheckpointEvery is how many records may accumulate before the
	// chain is sealed with a signed checkpoint (0 = 256; negative =
	// only on Close). Ignored without a Signer.
	CheckpointEvery int
	// Signer is the broker keypair sealing checkpoints (nil = the
	// journal chains but is never checkpointed).
	Signer *keys.KeyPair
	// Chain is the signer's credential chain, leaf first; Chain[0].Key
	// must be Signer's public key. Required when Signer is set.
	Chain []*cred.Credential
	// RingSize bounds the in-memory query ring backing /debug/audit
	// (0 = 4096).
	RingSize int
}

// Stats is a point-in-time snapshot of journal counters.
type Stats struct {
	// Records is the total appended this process (checkpoints included).
	Records uint64
	// Recovered is how many records Open replayed from disk.
	Recovered uint64
	// Checkpoints counts signed checkpoints appended this process.
	Checkpoints uint64
	// Lost counts events dropped because the journal had failed.
	Lost uint64
	// TornBytes is how many trailing bytes Open truncated off the final
	// segment (a crash mid-append).
	TornBytes int64
	// Segments is the number of on-disk segments (history included).
	Segments int
	// Seq is the last assigned sequence number.
	Seq uint64
	// Failed reports the sticky failure state.
	Failed bool
}

// Journal is an open audit journal.
type Journal struct {
	opts Options

	log *seglog.Log // its append lock guards the fields below

	seq       uint64
	head      [HashSize]byte
	sinceCkpt int // records since the last checkpoint
	recovered uint64
	appended  uint64
	ckpts     uint64
	lost      uint64
	tornBytes int64

	ring     []ringEntry
	ringNext int
}

type ringEntry struct {
	seq  uint64
	time int64
	ev   Event
}

// Open replays the segments in dir (creating it if needed) and returns
// the journal ready for appends, its chain state restored. A torn tail
// on the final segment is truncated away (crash artifact); any other
// damage fails with ErrJournalDamaged — run Verify on the directory to
// locate it.
func Open(opts Options) (*Journal, error) { return open(opts, nil) }

// open is Open plus the fault-injection hook, which is the crash
// matrix's and not a deployment option.
func open(opts Options, faults seglog.FaultFunc) (*Journal, error) {
	if opts.Dir == "" {
		return nil, errors.New("audit: Options.Dir is required")
	}
	if opts.RingSize <= 0 {
		opts.RingSize = 4096
	}
	if opts.Signer != nil && len(opts.Chain) == 0 {
		return nil, errors.New("audit: Signer requires a credential Chain")
	}
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = 256
	}

	j := &Journal{opts: opts, ring: make([]ringEntry, opts.RingSize)}
	stopped := func(seg seglog.Segment, later []seglog.Segment, stop seglog.Stop) (bool, error) {
		// Only a short record is a crash artifact, and only in the last
		// segment holding any data, not merely the last file: rotation
		// opens the next segment the moment the old one fills, so a
		// crash (or a truncation) right at the boundary leaves the torn
		// record in a segment followed only by empty ones. Anything else
		// is damage.
		torn := errors.Is(stop.Err, ErrShortRecord)
		for _, l := range later {
			torn = torn && l.Size == 0
		}
		if !torn {
			return false, fmt.Errorf("%w: %s@%d: %v", ErrJournalDamaged, seg.Name, stop.Offset, stop.Err)
		}
		j.tornBytes = stop.Size - stop.Offset
		return true, nil
	}
	// The flusher may run PreFlush before j.log is assigned; that is safe
	// because nothing is due for sealing until the first Record.
	var err error
	j.log, err = seglog.Open(seglog.Options{
		Dir: opts.Dir, Format: format, Replay: j.replay, Stopped: stopped,
		SyncInterval: opts.SyncInterval, SegmentBytes: opts.SegmentBytes,
		Faults: faults, PreFlush: j.maybeCheckpointLocked,
	})
	if err != nil {
		return nil, err
	}
	return j, nil
}

// replay re-derives the chain state (seq, head) over one record. The
// chain links are re-checked during replay: appending onto an already
// broken chain would launder the break into "it verified when written".
func (j *Journal) replay(_ int64, framed []byte) error {
	rec, err := decodeBody(framed[seglog.HeaderSize:])
	if err != nil {
		return err
	}
	if rec.Seq != j.seq+1 || rec.Prev != j.head {
		return fmt.Errorf("hash chain break at seq %d", rec.Seq)
	}
	j.recovered++
	j.advance(rec, framed)
	return nil
}

// advance moves the chain head over one record's framed bytes.
func (j *Journal) advance(rec Record, framed []byte) {
	j.head = sha256.Sum256(framed)
	j.seq = rec.Seq
	if rec.Frame == FrameEvent {
		j.ring[j.ringNext] = ringEntry{seq: rec.Seq, time: rec.Time, ev: Event{
			Kind: rec.Kind, Peer: rec.Peer, Op: rec.Op, Reason: rec.Reason, Trace: rec.Trace,
		}}
		j.ringNext = (j.ringNext + 1) % len(j.ring)
	}
}

// Record appends one event and returns its sequence number (0 when the
// journal is nil or has failed — the event is counted lost, never
// blocks the caller). This is the hot emit path: with a positive
// SyncInterval it costs one encode, one SHA-256 and a ring store under
// a mutex — no syscalls, no allocations steady-state (held by
// TestGateRecordStaged).
func (j *Journal) Record(e Event) uint64 {
	if j == nil {
		return 0
	}
	clampEvent(&e)
	j.log.Lock()
	defer j.log.Unlock()
	rec := Record{
		Frame: FrameEvent, Seq: j.seq + 1, Prev: j.head,
		Time:  time.Now().UnixNano(),
		Trace: e.Trace, Kind: e.Kind, Peer: e.Peer, Op: e.Op, Reason: e.Reason,
	}
	if j.appendLocked(rec) != nil {
		j.lost++
		return 0
	}
	if j.opts.SyncInterval <= 0 {
		// Staged mode seals from the flusher instead (seglog's PreFlush),
		// keeping the signature off the emit path.
		j.maybeCheckpointLocked()
	}
	return rec.Seq
}

// clampEvent truncates oversized fields instead of rejecting the event.
func clampEvent(e *Event) {
	if len(e.Kind) > maxFieldLen {
		e.Kind = e.Kind[:maxFieldLen]
	}
	if len(e.Peer) > maxFieldLen {
		e.Peer = e.Peer[:maxFieldLen]
	}
	if len(e.Op) > maxFieldLen {
		e.Op = e.Op[:maxFieldLen]
	}
	if len(e.Reason) > maxFieldLen {
		e.Reason = e.Reason[:maxFieldLen]
	}
}

// appendLocked encodes rec straight into the log's buffer, commits it,
// and advances the chain over the framed bytes in the same critical
// section — that is what keeps the head (and any checkpoint signed over
// it) consistent with the chain position without a reservation
// protocol. A record that cannot be encoded fails the journal.
func (j *Journal) appendLocked(rec Record) error {
	buf, err := j.log.Begin()
	if err != nil {
		return err
	}
	if buf, err = AppendRecord(buf, rec); err != nil {
		return j.log.Fail(err)
	}
	framed, err := j.log.Commit(buf)
	if err != nil {
		return err
	}
	j.advance(rec, framed)
	j.appended++
	j.sinceCkpt++
	if rec.Frame == FrameCheckpoint {
		j.ckpts++
		j.sinceCkpt = 0
	}
	return nil
}

// maybeCheckpointLocked seals the chain when enough records have
// accumulated. The RSA signature runs with the append lock held — a
// deliberate trade: a checkpoint every CheckpointEvery records stalls
// appends for one signature (~hundreds of µs), amortizing to well under
// the cost of the events it covers, and keeping the signed head exactly
// consistent with the chain position.
func (j *Journal) maybeCheckpointLocked() {
	if every := j.opts.CheckpointEvery; every > 0 && j.sinceCkpt >= every {
		j.checkpointLocked()
	}
}

func (j *Journal) checkpointLocked() {
	if j.opts.Signer == nil || j.sinceCkpt == 0 || j.log.Err() != nil {
		return
	}
	rec := Record{Frame: FrameCheckpoint, Seq: j.seq + 1, Prev: j.head, Time: time.Now().UnixNano()}
	payload, err := buildCheckpoint(rec.Seq, rec.Prev, time.Unix(0, rec.Time), j.opts.Signer, j.opts.Chain)
	if err != nil {
		j.log.Fail(err)
		return
	}
	rec.Checkpoint = payload
	_ = j.appendLocked(rec) // a failure is sticky; Sync and Close report it
}

// Sync forces the staged batch (if any) to disk.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	return j.log.Sync()
}

// Checkpoint seals the chain now, regardless of cadence (tests, and
// operators wanting a fresh attestation before archiving), and syncs it.
func (j *Journal) Checkpoint() error {
	if j == nil {
		return nil
	}
	j.log.Lock()
	j.checkpointLocked()
	j.log.Unlock()
	return j.log.Sync()
}

// Close seals the chain with a final checkpoint, flushes and closes.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.log.Lock()
	j.checkpointLocked()
	j.log.Unlock()
	return j.log.Close()
}

// Head returns the current chain head — the externally rememberable
// trust point that makes rollback provable (pass it to Verify as
// ExpectHead).
func (j *Journal) Head() [HashSize]byte {
	if j == nil {
		return [HashSize]byte{}
	}
	j.log.Lock()
	defer j.log.Unlock()
	return j.head
}

// Seq returns the last assigned sequence number.
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	j.log.Lock()
	defer j.log.Unlock()
	return j.seq
}

// Stats snapshots the journal counters (telemetry collectors read it).
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	j.log.Lock()
	defer j.log.Unlock()
	return Stats{
		Records:     j.appended,
		Recovered:   j.recovered,
		Checkpoints: j.ckpts,
		Lost:        j.lost,
		TornBytes:   j.tornBytes,
		Segments:    j.log.Segments(),
		Seq:         j.seq,
		Failed:      j.log.Err() != nil,
	}
}
