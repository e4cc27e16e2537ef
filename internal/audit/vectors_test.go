package audit

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"jxtaoverlay/internal/keys"
)

// recordVector is one journal record as an encoder wrote it: its frame in
// hex and the record it decodes to.
type recordVector struct {
	Name   string
	Hex    string
	Record Record
}

// recordVectors reads testdata/vectors/record.json: a journal of two
// records, an event and the checkpoint behind it, signed with the fixture
// key (internal/keys/testdata) under a credential issued to it by itself.
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
// record re-encodes to the vector's bytes. The checkpoint links to the event
// in front of it, and its payload verifies under the fixture key. A journal
// on disk stays verifiable: a format change adds vectors and edits none.
func TestRecordVectors(t *testing.T) {
	pem, err := os.ReadFile("../keys/testdata/fuzz_envelope_key.pem")
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := keys.ParseKeyPairPEM(pem)
	if err != nil {
		t.Fatal(err)
	}
	vs := recordVectors(t)
	if len(vs) != 2 || vs[0].Record.Frame != FrameEvent || vs[1].Record.Frame != FrameCheckpoint {
		t.Fatalf("want an event and a checkpoint, got %d vectors", len(vs))
	}
	var head [HashSize]byte
	for _, v := range vs {
		enc := unhex(t, v.Hex)
		rec, n, err := DecodeRecord(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("%s: decoded %d of %d bytes: %v", v.Name, n, len(enc), err)
		}
		if !reflect.DeepEqual(rec, v.Record) {
			t.Fatalf("%s: decoded %+v, want %+v", v.Name, rec, v.Record)
		}
		again, err := AppendRecord(nil, v.Record)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("%s: re-encoded\n%x\nwant\n%x", v.Name, again, enc)
		}
		if rec.Prev != head {
			t.Fatalf("%s: does not link to the record in front of it", v.Name)
		}
		if rec.Frame == FrameCheckpoint {
			c, err := parseCheckpoint(rec.Checkpoint)
			if err != nil {
				t.Fatalf("%s: %v", v.Name, err)
			}
			leaf, err := c.verify(rec, head, nil, time.Time{})
			if err != nil {
				t.Fatalf("%s: %v", v.Name, err)
			}
			if !leaf.Key.SameIdentity(fixture.Public()) {
				t.Fatalf("%s: signed by %s, not the fixture key", v.Name, leaf.Subject)
			}
		}
		head = sha256.Sum256(enc)
	}
}
