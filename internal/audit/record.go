package audit

import (
	"encoding/binary"
	"fmt"

	"jxtaoverlay/internal/seglog"
)

// Wire layout of one record (the header is the seglog frame):
//
//	uint32 LE  body length
//	uint32 LE  CRC-32C (Castagnoli) of body
//	body:
//	  [0]      version (1)
//	  [1]      frame (FrameEvent | FrameCheckpoint)
//	  [2:10]   uint64 LE sequence number (1-based, strictly consecutive)
//	  [10:42]  SHA-256 of the predecessor's full framed bytes
//	           (all zero for the journal's first record)
//	  [42:50]  int64 LE wall time, unix nanoseconds
//	  FrameEvent:
//	    [50:58]  uint64 LE trace ID (0 = untraced)
//	    uint16 LE len + bytes: Kind
//	    uint16 LE len + bytes: Peer
//	    uint16 LE len + bytes: Op
//	    uint16 LE len + bytes: Reason
//	  FrameCheckpoint:
//	    uint32 LE len + bytes: canonical <AuditCheckpoint> XML, signed
//
// Every field is fixed-width or explicitly length-prefixed and the
// decoder rejects records whose fields do not consume the body exactly,
// so decoding is a bijection on accepted inputs: any record the decoder
// admits re-encodes to the identical bytes (FuzzAuditDecode pins this).
//
// The CRC is an integrity check against accidental damage only; the
// tamper evidence is the prev-hash chain plus the signed checkpoints —
// an adversary can recompute a CRC, but cannot forge the SHA-256 link
// carried by the NEXT record, nor the RSA signature sealing the chain
// head (see SECURITY.md, "Audit trust model").

// Frame discriminates record types.
type Frame byte

// Frame kinds.
const (
	// FrameEvent is one security event (kind/peer/op/reason/trace).
	FrameEvent Frame = 1
	// FrameCheckpoint seals the chain: its payload is a broker-signed
	// canonical XML attestation of the chain head at this position.
	FrameCheckpoint Frame = 2
)

const (
	recordVersion = 1

	// HashSize is the width of the prev-hash chain link (SHA-256).
	HashSize = 32

	// fixedBody is the length of the fields every body starts with:
	// version, frame, seq, prev-hash, timestamp.
	fixedBody = 2 + 8 + HashSize + 8

	// maxFieldLen bounds the kind/peer/op/reason strings.
	maxFieldLen = 1 << 12

	// MaxCheckpointBytes bounds one checkpoint payload so a corrupt
	// length field cannot drive a giant allocation during verification.
	// A checkpoint is a small XML document plus a credential chain — a
	// few KB; 1 MiB leaves room for deep chains.
	MaxCheckpointBytes = 1 << 20
)

// Codec errors are the frame layer's (see seglog.ErrShort and
// seglog.ErrCorrupt), so one errors.Is covers a bad frame and a bad
// body alike.
var (
	ErrShortRecord   = seglog.ErrShort
	ErrCorruptRecord = seglog.ErrCorrupt
)

// format is the journal's on-disk identity: audit-%08d.seg segments,
// bodies from the fixed fields up to the largest checkpoint plus its
// envelope.
var format = seglog.Format{Prefix: "audit-", Suffix: ".seg", MinBody: fixedBody, MaxBody: MaxCheckpointBytes + 64}

// Record is one journal entry.
type Record struct {
	Seq   uint64
	Frame Frame
	// Prev is the SHA-256 of the preceding record's framed bytes
	// (header included); zero for the first record.
	Prev [HashSize]byte
	// Time is the wall time the record was appended, unix nanoseconds.
	Time int64

	// FrameEvent fields.
	Trace  uint64
	Kind   string
	Peer   string
	Op     string
	Reason string

	// FrameCheckpoint field: the signed canonical XML attestation.
	Checkpoint []byte
}

// AppendRecord encodes rec onto dst and returns the extended slice.
func AppendRecord(dst []byte, rec Record) ([]byte, error) {
	start := len(dst)
	dst = seglog.BeginFrame(dst)
	dst = append(dst, recordVersion, byte(rec.Frame))
	dst = binary.LittleEndian.AppendUint64(dst, rec.Seq)
	dst = append(dst, rec.Prev[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.Time))
	switch rec.Frame {
	case FrameEvent:
		if len(rec.Kind) > maxFieldLen || len(rec.Peer) > maxFieldLen ||
			len(rec.Op) > maxFieldLen || len(rec.Reason) > maxFieldLen {
			return dst[:start], fmt.Errorf("%w: oversized field", ErrCorruptRecord)
		}
		dst = binary.LittleEndian.AppendUint64(dst, rec.Trace)
		for _, s := range [...]string{rec.Kind, rec.Peer, rec.Op, rec.Reason} {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
			dst = append(dst, s...)
		}
	case FrameCheckpoint:
		if len(rec.Checkpoint) > MaxCheckpointBytes {
			return dst[:start], fmt.Errorf("%w: oversized checkpoint", ErrCorruptRecord)
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec.Checkpoint)))
		dst = append(dst, rec.Checkpoint...)
	default:
		return dst[:start], fmt.Errorf("%w: bad frame %d", ErrCorruptRecord, rec.Frame)
	}
	return seglog.EndFrame(dst, start), nil
}

// DecodeRecord decodes one record from the front of b, returning the
// record and the number of bytes it occupied. ErrShortRecord means b
// ends mid-record (a torn tail); ErrCorruptRecord means the bytes are
// framed but invalid (CRC mismatch included). The returned record's
// Checkpoint aliases b.
func DecodeRecord(b []byte) (Record, int, error) {
	body, n, err := format.Decode(b)
	if err != nil {
		return Record{}, 0, err
	}
	rec, err := decodeBody(body)
	return rec, n, err
}

// decodeBody decodes a CRC-checked body of at least fixedBody bytes
// (format.Decode guarantees both).
func decodeBody(body []byte) (Record, error) {
	var rec Record
	if body[0] != recordVersion {
		return rec, fmt.Errorf("%w: version %d", ErrCorruptRecord, body[0])
	}
	rec.Frame = Frame(body[1])
	rec.Seq = binary.LittleEndian.Uint64(body[2:])
	copy(rec.Prev[:], body[10:])
	rec.Time = int64(binary.LittleEndian.Uint64(body[42:]))
	rest := body[fixedBody:]
	switch rec.Frame {
	case FrameEvent:
		if len(rest) < 8 {
			return rec, fmt.Errorf("%w: short event body", ErrCorruptRecord)
		}
		rec.Trace = binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
		var field []byte
		var err error
		for _, dst := range [...]*string{&rec.Kind, &rec.Peer, &rec.Op, &rec.Reason} {
			if field, rest, err = take16(rest); err != nil {
				return rec, err
			}
			*dst = string(field)
		}
		if len(rest) != 0 {
			// Trailing garbage: accepting it would break encode∘decode
			// identity AND let an adversary smuggle unhashed bytes.
			return rec, fmt.Errorf("%w: event fields do not tile body", ErrCorruptRecord)
		}
	case FrameCheckpoint:
		if len(rest) < 4 {
			return rec, fmt.Errorf("%w: short checkpoint length", ErrCorruptRecord)
		}
		plen := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint32(len(rest)) != plen {
			return rec, fmt.Errorf("%w: checkpoint does not tile body", ErrCorruptRecord)
		}
		rec.Checkpoint = rest
	default:
		return rec, fmt.Errorf("%w: bad frame %d", ErrCorruptRecord, body[1])
	}
	return rec, nil
}

func take16(b []byte) (field, rest []byte, err error) {
	if len(b) < 2 {
		return nil, b, fmt.Errorf("%w: short field length", ErrCorruptRecord)
	}
	n := int(binary.LittleEndian.Uint16(b))
	if n > maxFieldLen {
		return nil, b, fmt.Errorf("%w: oversized field", ErrCorruptRecord)
	}
	b = b[2:]
	if len(b) < n {
		return nil, b, fmt.Errorf("%w: field overruns body", ErrCorruptRecord)
	}
	return b[:n], b[n:], nil
}
