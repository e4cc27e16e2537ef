package audit

import (
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
	"path/filepath"
	"time"

	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/seglog"
)

// chain is the journal's hash-chain state and its one rule, which Open's
// replay, Verify and every append follow.
type chain struct {
	seq  uint64         // the last record's sequence number
	head [HashSize]byte // SHA-256 of the last record's framed bytes
}

// follow decodes a framed record and holds it to the rule — seq one more
// than the last, Prev the last head — and to accept (nil: nothing more),
// then advances the chain over it. On an error the chain stays put.
func (c *chain) follow(framed []byte, accept func(Record) error) (Record, error) {
	rec, err := decodeBody(framed[seglog.HeaderSize:])
	switch {
	case err != nil:
	case rec.Seq != c.seq+1:
		err = fmt.Errorf("sequence break: got seq %d, want %d", rec.Seq, c.seq+1)
	case rec.Prev != c.head:
		err = fmt.Errorf("hash chain break at seq %d: prev-hash does not match the preceding record", rec.Seq)
	case accept != nil:
		err = accept(rec)
	}
	if err == nil {
		c.advance(rec.Seq, framed)
	}
	return rec, err
}

// advance moves the chain over record seq, framed as framed.
func (c *chain) advance(seq uint64, framed []byte) {
	c.head = sha256.Sum256(framed)
	c.seq = seq
}

// VerifyOptions parameterizes a full-chain verification.
type VerifyOptions struct {
	// Trust, when set, requires every checkpoint's credential chain to
	// reach one of the store's anchors and its leaf to be a broker's
	// (attribution to a certified broker key, not just "some RSA key").
	// Nil checks signatures under the chain's leaf key only.
	Trust *cred.TrustStore
	// ExpectHead and ExpectSeq are an externally remembered trust point
	// — the chain head and sequence number scraped from /debug/audit or
	// a prior Verify. When set, a journal that verifies internally but
	// falls short of them is reported as rollback: an attacker who
	// truncated the journal back to a record boundary (or restored an
	// old snapshot) produced a chain that is self-consistent but
	// provably not the one the auditor last saw.
	ExpectHead []byte
	ExpectSeq  uint64
}

// Fault pinpoints the first detected problem.
type Fault struct {
	// Segment is the damaged segment's file name.
	Segment string `json:"segment"`
	// Offset is the byte offset within the segment where verification
	// first failed.
	Offset int64 `json:"offset"`
	// Seq is the last sequence number verified good before the fault.
	Seq uint64 `json:"seq"`
	// Reason describes the failure.
	Reason string `json:"reason"`
}

func (f *Fault) String() string {
	return fmt.Sprintf("%s@%d (after seq %d): %s", f.Segment, f.Offset, f.Seq, f.Reason)
}

// Report is the result of one full-chain verification.
type Report struct {
	// Segments is how many segment files were walked.
	Segments int
	// Records is how many records verified good (checkpoints included).
	Records uint64
	// Events is how many of those were event records.
	Events uint64
	// Checkpoints is how many signed checkpoints verified good.
	Checkpoints int
	// LastCheckpointSeq is the newest verified checkpoint's sequence
	// number (0 = none).
	LastCheckpointSeq uint64
	// Unsealed counts records after the last verified checkpoint — the
	// tail no signature covers yet (see SECURITY.md).
	Unsealed uint64
	// Signer names the newest checkpoint's certified signer.
	Signer string
	// Head is the chain head over the verified records.
	Head [HashSize]byte
	// LastSeq is the last verified sequence number.
	LastSeq uint64
	// Fault is the first detected problem (nil = the journal is clean).
	Fault *Fault
}

// OK reports whether verification found no fault.
func (r *Report) OK() bool { return r.Fault == nil }

// Verify walks every segment of an audit journal directory, re-derives
// the hash chain record by record and checks each checkpoint's
// signature against the chain state computed so far. It stops at the
// first fault and reports its exact segment and byte offset:
//
//   - a flipped bit fails the CRC (or, if re-checksummed, the next
//     record's prev-hash) at the damaged record;
//   - a truncated or torn record fails to decode at its offset;
//   - reordered records break sequence/chain continuity at the first
//     displaced record;
//   - a rollback to an earlier record boundary verifies internally but
//     fails the ExpectHead/ExpectSeq trust point at the journal's end.
//
// The error return is reserved for harness problems (unreadable
// directory); tamper findings land in Report.Fault.
func Verify(dir string, opts VerifyOptions) (*Report, error) {
	now := time.Now() // the instant every checkpoint's credential validity is judged at
	segs, err := format.List(dir)
	if err != nil {
		return nil, err
	}
	r := &Report{}
	var c chain
	lastSegName := ""
	var lastSegEnd int64

	// check holds one record to the chain, and a checkpoint's signature
	// to the head before it; its error is the fault's reason.
	check := func(_ int64, framed []byte) error {
		var signer *cred.Credential
		rec, err := c.follow(framed, func(rec Record) error {
			if rec.Frame != FrameCheckpoint {
				return nil
			}
			claim, err := parseCheckpoint(rec.Checkpoint)
			if err == nil {
				signer, err = claim.verify(rec, rec.Prev, opts.Trust, now)
			}
			return err
		})
		if err != nil {
			return err
		}
		if signer != nil {
			r.Checkpoints++
			r.LastCheckpointSeq = rec.Seq
			r.Signer = signer.SubjectName
		} else {
			r.Events++
		}
		r.Records++
		return nil
	}
	for _, seg := range segs {
		stop, err := format.Walk(filepath.Join(dir, seg.Name), check)
		if err != nil {
			return nil, err
		}
		r.Segments++
		lastSegName, lastSegEnd = seg.Name, stop.Size
		if stop.Err != nil {
			r.Fault = &Fault{Segment: seg.Name, Offset: stop.Offset, Seq: c.seq, Reason: stop.Err.Error()}
			break
		}
	}
	r.Head, r.LastSeq = c.head, c.seq
	if r.LastCheckpointSeq > 0 {
		r.Unsealed = c.seq - r.LastCheckpointSeq
	} else {
		r.Unsealed = c.seq
	}

	// The internal chain is consistent — now hold it against the
	// externally remembered trust point, if the caller has one. The
	// first bad offset of a rollback is the journal's end: everything
	// on disk is genuine, it is the missing suffix that convicts.
	if r.Fault == nil && (len(opts.ExpectHead) > 0 || opts.ExpectSeq > 0) {
		rolledBack := opts.ExpectSeq > 0 && c.seq < opts.ExpectSeq
		if len(opts.ExpectHead) > 0 &&
			(opts.ExpectSeq == 0 || opts.ExpectSeq == c.seq) &&
			subtle.ConstantTimeCompare(c.head[:], opts.ExpectHead) != 1 {
			rolledBack = true
		}
		if rolledBack {
			r.Fault = &Fault{Segment: lastSegName, Offset: lastSegEnd, Seq: c.seq,
				Reason: fmt.Sprintf("rollback: journal ends at seq %d, which is not the trust point (expect seq %d / remembered head)", c.seq, opts.ExpectSeq)}
		}
	}
	return r, nil
}
