package wal

import (
	"encoding/binary"
	"fmt"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/seglog"
)

// Wire layout of one record (the header is the seglog frame):
//
//	uint32 LE  body length
//	uint32 LE  CRC-32C (Castagnoli) of body
//	body:
//	  [0]      version (1)
//	  [1]      kind (KindAdd | KindAck)
//	  [2:10]   uint64 LE sequence number
//	  KindAdd:
//	    [10:18]  int64 LE expiry, unix nanoseconds
//	    [18]     flags (written 0; see flagForwarded)
//	    uint16 LE len + bytes: To
//	    uint16 LE len + bytes: From
//	    uint16 LE len + bytes: Group
//	    uint32 LE len + bytes: Payload
//	  KindAck:
//	    [10]     reason (AckDelivered | AckExpired | AckDropped)
//
// Every field is fixed-width or explicitly length-prefixed and the
// decoder rejects records whose fields do not consume the body exactly,
// so decoding is a bijection on accepted inputs: any record the decoder
// admits re-encodes to the identical bytes, save a set flagForwarded bit,
// which re-encodes 0 (FuzzWALDecode pins this).

// Kind discriminates record types.
type Kind byte

// Record kinds.
const (
	// KindAdd appends one queued item.
	KindAdd Kind = 1
	// KindAck retires a previously added item (delivered, expired or
	// dropped); the sequence number names the add it retires.
	KindAck Kind = 2
)

// AckReason says why an item left the queue.
type AckReason byte

// Ack reasons.
const (
	// AckDelivered: the item was handed to its recipient.
	AckDelivered AckReason = 1
	// AckExpired: the item's TTL ran out before delivery.
	AckExpired AckReason = 2
	// AckDropped: the item was evicted (queue overflow or quota).
	AckDropped AckReason = 3
)

const (
	recordVersion = 1

	// fixedBody is the length of the fields every body starts with:
	// version, kind, seq.
	fixedBody = 2 + 8

	// flagForwarded is the one flag bit a record may carry. Brokers that
	// federated set it on an item a partner handed off; an item is now
	// delivered the same whoever queued it, so the bit is written 0 and
	// read past, and a log written with it set replays unchanged. Any
	// other bit is corrupt.
	flagForwarded = 1 << 0

	// MaxPayload bounds one record's payload so a corrupt length field
	// cannot drive a giant allocation during recovery. Relay slices are
	// a few KB; 16 MiB leaves room for any realistic wire.
	MaxPayload = 16 << 20

	// maxIDLen bounds the peer/group identifier fields.
	maxIDLen = 1 << 12
)

// ErrCorruptRecord is the frame layer's seglog.ErrCorrupt, so one
// errors.Is covers a bad frame and a bad body alike.
var ErrCorruptRecord = seglog.ErrCorrupt

// format is the WAL's on-disk identity: seg-%08d.wal segments, bodies
// from the fixed fields up to the largest payload plus its envelope.
var format = seglog.Format{Prefix: "seg-", Suffix: ".wal", MinBody: fixedBody, MaxBody: MaxPayload + 64}

// Record is one WAL entry.
type Record struct {
	Seq  Seq
	Kind Kind

	// KindAdd fields.
	To      keys.PeerID
	From    keys.PeerID
	Group   string
	Payload []byte
	Expires time.Time

	// KindAck field.
	Reason AckReason
}

// Seq is a WAL sequence number. Zero means "not persisted".
type Seq uint64

// AppendRecord encodes rec onto dst and returns the extended slice.
func AppendRecord(dst []byte, rec Record) ([]byte, error) {
	start := len(dst)
	dst = seglog.BeginFrame(dst)
	dst = append(dst, recordVersion, byte(rec.Kind))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.Seq))
	switch rec.Kind {
	case KindAdd:
		if len(rec.To) > maxIDLen || len(rec.From) > maxIDLen || len(rec.Group) > maxIDLen {
			return dst[:start], fmt.Errorf("%w: oversized identifier", ErrCorruptRecord)
		}
		if len(rec.Payload) > MaxPayload {
			return dst[:start], fmt.Errorf("%w: oversized payload", ErrCorruptRecord)
		}
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.Expires.UnixNano()))
		dst = append(dst, 0) // flags
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rec.To)))
		dst = append(dst, rec.To...)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rec.From)))
		dst = append(dst, rec.From...)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rec.Group)))
		dst = append(dst, rec.Group...)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec.Payload)))
		dst = append(dst, rec.Payload...)
	case KindAck:
		if rec.Reason < AckDelivered || rec.Reason > AckDropped {
			return dst[:start], fmt.Errorf("%w: bad ack reason", ErrCorruptRecord)
		}
		dst = append(dst, byte(rec.Reason))
	default:
		return dst[:start], fmt.Errorf("%w: bad kind %d", ErrCorruptRecord, rec.Kind)
	}
	return seglog.EndFrame(dst, start), nil
}

// DecodeRecord decodes one record from the front of b, returning the
// record and the number of bytes it occupied. seglog.ErrShort means b
// ends mid-record (a torn tail); ErrCorruptRecord means the bytes are
// framed but invalid (CRC mismatch included). The returned record's
// Payload aliases b.
func DecodeRecord(b []byte) (Record, int, error) {
	body, n, err := format.Decode(b)
	if err != nil {
		return Record{}, 0, err
	}
	rec, err := decodeBody(body)
	return rec, n, err
}

// decodeBody decodes a CRC-checked body.
func decodeBody(body []byte) (Record, error) {
	in := seglog.NewReader(body)
	if v := in.Uint(1); v != recordVersion {
		return Record{}, fmt.Errorf("%w: version %d", ErrCorruptRecord, v)
	}
	rec := Record{Kind: Kind(in.Uint(1)), Seq: Seq(in.Uint(8))}
	switch rec.Kind {
	case KindAdd:
		rec.Expires = time.Unix(0, int64(in.Uint(8)))
		if flags := in.Uint(1); flags&^flagForwarded != 0 {
			return rec, fmt.Errorf("%w: unknown flags %#x", ErrCorruptRecord, flags)
		}
		to, from, group := in.Field(2), in.Field(2), in.Field(2)
		if len(to) > maxIDLen || len(from) > maxIDLen || len(group) > maxIDLen {
			return rec, fmt.Errorf("%w: oversized identifier", ErrCorruptRecord)
		}
		rec.To, rec.From, rec.Group = keys.PeerID(to), keys.PeerID(from), string(group)
		rec.Payload = in.Field(4)
	case KindAck:
		if rec.Reason = AckReason(in.Uint(1)); rec.Reason < AckDelivered || rec.Reason > AckDropped {
			return rec, fmt.Errorf("%w: bad ack reason %d", ErrCorruptRecord, rec.Reason)
		}
	default:
		return rec, fmt.Errorf("%w: bad kind %d", ErrCorruptRecord, rec.Kind)
	}
	if !in.Done() {
		// Too short OR trailing garbage: either way the fields do not tile
		// the body, and accepting it would break encode∘decode identity.
		return rec, fmt.Errorf("%w: fields do not tile the body", ErrCorruptRecord)
	}
	return rec, nil
}
