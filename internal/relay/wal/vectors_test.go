package wal

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// recordVector is one WAL record as an encoder wrote it: its frame in hex,
// the record it decodes to and, when that record re-encodes to other bytes,
// those bytes.
type recordVector struct {
	Name      string
	Hex       string
	Reencodes string `json:",omitempty"`
	Record    Record
}

// recordVectors reads testdata/vectors/record.json: an add, an ack for each
// reason, and an add written with flagForwarded set, which re-encodes with
// its flags byte 0.
func recordVectors(tb testing.TB) []recordVector {
	tb.Helper()
	raw, err := os.ReadFile("testdata/vectors/record.json")
	if err != nil {
		tb.Fatal(err)
	}
	var vs []recordVector
	if err := json.Unmarshal(raw, &vs); err != nil {
		tb.Fatal(err)
	}
	return vs
}

func unhex(tb testing.TB, s string) []byte {
	tb.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestRecordVectors: every vector decodes, whole, to its record, and the
// record re-encodes to the vector's bytes (or to Reencodes). A log on disk
// stays readable: a format change adds vectors and edits none.
func TestRecordVectors(t *testing.T) {
	vs := recordVectors(t)
	reasons := map[AckReason]bool{}
	for _, v := range vs {
		enc := unhex(t, v.Hex)
		rec, n, err := DecodeRecord(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("%s: decoded %d of %d bytes: %v", v.Name, n, len(enc), err)
		}
		want := v.Record
		if !rec.Expires.Equal(want.Expires) {
			t.Fatalf("%s: expires %v, want %v", v.Name, rec.Expires, want.Expires)
		}
		rec.Expires = want.Expires
		if !reflect.DeepEqual(rec, want) {
			t.Fatalf("%s: decoded %+v, want %+v", v.Name, rec, want)
		}
		again, err := AppendRecord(nil, want)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if v.Reencodes != "" {
			enc = unhex(t, v.Reencodes)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("%s: re-encoded\n%x\nwant\n%x", v.Name, again, enc)
		}
		if rec.Kind == KindAck {
			reasons[rec.Reason] = true
		}
	}
	if len(vs) != 5 || len(reasons) != 3 {
		t.Fatalf("%d vectors covering %d ack reasons, want 5 covering all 3", len(vs), len(reasons))
	}
}
