package wal

import (
	"bytes"
	"testing"
	"time"

	"jxtaoverlay/internal/seglog"
)

// FuzzWALDecode pins the two decoder invariants recovery leans on:
// arbitrary bytes never panic (a corrupt log cannot take the broker
// down at startup), and any ACCEPTED record is a fixed point of the
// codec — it re-encodes byte-identically, so replay → compaction →
// replay cannot drift. The one exception is an add whose flags byte
// holds flagForwarded: it re-encodes with the byte 0 and is a fixed
// point from then on. Every vector (testdata/vectors) seeds the corpus.
func FuzzWALDecode(f *testing.F) {
	seed := func(rec Record) {
		enc, err := AppendRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	seed(Record{Kind: KindAdd, Seq: 1, To: "urn:jxta:cbid-abc", From: "urn:jxta:cbid-def",
		Group: "math", Payload: []byte("sealed slice bytes"), Expires: time.Unix(1700000000, 42)})
	seed(Record{Kind: KindAdd, Seq: 2, Expires: time.Time{}})
	f.Add(legacyForwardedRecord())
	seed(Record{Kind: KindAck, Seq: 1, Reason: AckDelivered})
	seed(Record{Kind: KindAck, Seq: 1<<63 - 1, Reason: AckExpired})
	for _, v := range recordVectors(f) {
		f.Add(unhex(f, v.Hex))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 1})
	f.Add(bytes.Repeat([]byte{0}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeRecord(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("accepted record claims %d of %d bytes", n, len(data))
		}
		re, err := AppendRecord(nil, rec)
		if err != nil {
			t.Fatalf("accepted record fails to re-encode: %v", err)
		}
		want := data[:n]
		if rec.Kind == KindAdd && want[addFlags] == flagForwarded {
			want = bytes.Clone(want)
			want[addFlags] = 0
			want = seglog.EndFrame(want, 0)
		}
		if !bytes.Equal(re, want) {
			t.Fatalf("round-trip drift:\n in: %x\nout: %x", data[:n], re)
		}
	})
}
