package audit

import (
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/seglog"
)

// VerifyOptions parameterizes a full-chain verification.
type VerifyOptions struct {
	// Trust, when set, requires every checkpoint's credential chain to
	// reach one of the store's anchors (attribution to a certified
	// broker key, not just "some RSA key"). Nil checks signatures
	// structurally only.
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
	var head [HashSize]byte
	var seq uint64
	lastSegName := ""
	var lastSegEnd int64

	// check holds one record against the chain state computed so far;
	// its error is the fault's reason.
	check := func(_ int64, framed []byte) error {
		rec, err := decodeBody(framed[seglog.HeaderSize:])
		if err != nil {
			return err
		}
		if rec.Seq != seq+1 {
			return fmt.Errorf("sequence break: got seq %d, want %d", rec.Seq, seq+1)
		}
		if rec.Prev != head {
			return fmt.Errorf("hash chain break at seq %d: prev-hash does not match the preceding record", rec.Seq)
		}
		if rec.Frame == FrameCheckpoint {
			claim, err := parseCheckpoint(rec.Checkpoint)
			if err != nil {
				return err
			}
			signer, err := claim.verify(rec, head, opts.Trust, now)
			if err != nil {
				return err
			}
			r.Checkpoints++
			r.LastCheckpointSeq = rec.Seq
			r.Signer = strings.Clone(signer.SubjectName) // a view of the segment read
		} else {
			r.Events++
		}
		head = sha256.Sum256(framed)
		seq = rec.Seq
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
			r.Fault = &Fault{Segment: seg.Name, Offset: stop.Offset, Seq: seq, Reason: stop.Err.Error()}
			break
		}
	}
	r.Head = head
	r.LastSeq = seq
	if r.LastCheckpointSeq > 0 {
		r.Unsealed = seq - r.LastCheckpointSeq
	} else {
		r.Unsealed = seq
	}

	// The internal chain is consistent — now hold it against the
	// externally remembered trust point, if the caller has one. The
	// first bad offset of a rollback is the journal's end: everything
	// on disk is genuine, it is the missing suffix that convicts.
	if r.Fault == nil && (len(opts.ExpectHead) > 0 || opts.ExpectSeq > 0) {
		rolledBack := opts.ExpectSeq > 0 && seq < opts.ExpectSeq
		if len(opts.ExpectHead) > 0 &&
			(opts.ExpectSeq == 0 || opts.ExpectSeq == seq) &&
			subtle.ConstantTimeCompare(head[:], opts.ExpectHead) != 1 {
			rolledBack = true
		}
		if rolledBack {
			r.Fault = &Fault{Segment: lastSegName, Offset: lastSegEnd, Seq: seq,
				Reason: fmt.Sprintf("rollback: journal ends at seq %d, which is not the trust point (expect seq %d / remembered head)", seq, opts.ExpectSeq)}
		}
	}
	return r, nil
}
