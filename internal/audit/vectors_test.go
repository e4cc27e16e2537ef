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

	"jxtaoverlay/internal/cred"
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
	fixture := fixtureKey(t)
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

// checkpointVector is one checkpoint payload as buildCheckpoint wrote it:
// its bytes in hex and the fields they decode to, the signer's read off
// the leaf of its chain.
type checkpointVector struct {
	Name       string
	Hex        string
	Seq        uint64
	Records    uint64
	Head       string
	Time       int64 // Unix nanoseconds
	Signer     keys.PeerID
	SignerName string
	Role       cred.Role
}

// checkpointVectors reads testdata/vectors/checkpoint.json: a checkpoint
// signed with the fixture key (internal/keys/testdata) under a broker
// credential issued to it by itself.
func checkpointVectors(tb testing.TB) []checkpointVector {
	tb.Helper()
	raw, err := os.ReadFile("testdata/vectors/checkpoint.json")
	if err != nil {
		tb.Fatal(err)
	}
	var vs []checkpointVector
	if err := json.Unmarshal(raw, &vs); err != nil {
		tb.Fatal(err)
	}
	return vs
}

// TestCheckpointVectors: every checkpoint vector parses, whole, to its
// fields, verifies at its sequence number under its chain's leaf, which is
// the fixture key's broker credential, and signs again, from those fields
// and the fixture key, to the vector's bytes. A checkpoint on disk stays
// verifiable: a format change adds vectors and edits none.
func TestCheckpointVectors(t *testing.T) {
	fixture := fixtureKey(t)
	vs := checkpointVectors(t)
	if len(vs) == 0 {
		t.Fatal("no checkpoint vectors")
	}
	for _, v := range vs {
		payload := unhex(t, v.Hex)
		c, err := parseCheckpoint(payload)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		var head [HashSize]byte
		if n := copy(head[:], unhex(t, v.Head)); n != HashSize {
			t.Fatalf("%s: a head of %d bytes", v.Name, n)
		}
		at := time.Unix(0, v.Time).UTC()
		if c.Seq != v.Seq || c.Records != v.Records || c.Head != head || !c.Time.Equal(at) {
			t.Fatalf("%s: parsed seq %d, records %d, head %x, time %v; want %d, %d, %x, %v",
				v.Name, c.Seq, c.Records, c.Head, c.Time, v.Seq, v.Records, head, at)
		}
		leaf, err := c.verify(Record{Seq: v.Seq, Frame: FrameCheckpoint, Checkpoint: payload}, head, nil, time.Time{})
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if leaf.Subject != v.Signer || leaf.SubjectName != v.SignerName || leaf.Role != v.Role {
			t.Fatalf("%s: signed by %s (%q, %s), want %s (%q, %s)", v.Name, leaf.Subject, leaf.SubjectName, leaf.Role, v.Signer, v.SignerName, v.Role)
		}
		if !leaf.Key.SameIdentity(fixture.Public()) || leaf.Verify(fixture.Public(), at) != nil {
			t.Fatalf("%s: the leaf is not the fixture key's own credential, valid at the checkpoint", v.Name)
		}
		chain, err := cred.ParseChain(c.chain)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		again, err := buildCheckpoint(v.Seq, head, at, fixture, chain)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("%s: signed again\n%x\nwant\n%x", v.Name, again, payload)
		}
	}
}

// fixtureKey is the key pair of internal/keys/testdata the vectors are
// signed with.
func fixtureKey(tb testing.TB) *keys.KeyPair {
	tb.Helper()
	pem, err := os.ReadFile("../keys/testdata/fuzz_envelope_key.pem")
	if err != nil {
		tb.Fatal(err)
	}
	kp, err := keys.ParseKeyPairPEM(pem)
	if err != nil {
		tb.Fatal(err)
	}
	return kp
}
