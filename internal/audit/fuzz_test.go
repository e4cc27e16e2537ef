package audit

import (
	"bytes"
	"testing"
	"time"

	"jxtaoverlay/internal/proto"
)

// FuzzAuditDecode pins the decoder's two safety properties under
// arbitrary input, the same contract the relay WAL's FuzzWALDecode
// holds (and CI corpus-ratchets):
//
//  1. no crash, no giant allocation — DecodeRecord either returns a
//     record or an error, never panics;
//  2. bijection — any input the decoder accepts re-encodes to the
//     identical bytes, so there is no byte sequence that decodes
//     validly but would hash differently when re-framed (a prerequisite
//     for the hash chain's "framed bytes are the canonical form").
func FuzzAuditDecode(f *testing.F) {
	// Seed with one valid record of each frame, plus mutations the
	// fuzzer can splice, and the vectors (testdata/vectors).
	var prev [HashSize]byte
	evRec, err := AppendRecord(nil, Record{
		Frame: FrameEvent, Seq: 1, Prev: prev, Time: 1234567890,
		Trace: 42, Kind: KindLogin, Peer: "urn:jxta:cbid-ab", Op: "secureLogin", Reason: "ok",
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(evRec)
	ckRec, err := AppendRecord(nil, Record{
		Frame: FrameCheckpoint, Seq: 2, Prev: prev, Time: 1234567890,
		Checkpoint: append([]byte{byte(proto.KindCheckpoint)}, "not actually signed"...),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ckRec)
	f.Add(append(evRec[:len(evRec):len(evRec)], ckRec...))
	f.Add(evRec[:len(evRec)/2])
	f.Add([]byte{})
	for _, v := range recordVectors(f) {
		f.Add(unhex(f, v.Hex))
	}

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
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("decode/encode not a bijection:\n in  %x\n out %x", data[:n], re)
		}
	})
}

// FuzzParseCheckpoint feeds arbitrary bytes to the checkpoint decoder,
// which reads every checkpoint payload back from a disk an adversary may
// have reached. Seeds: a real checkpoint, a credential's bytes and a
// signed request's — the two other forms of its codec. Properties: no
// panic; an accepted payload re-encodes to exactly its bytes; and every
// field the claim keeps is a view inside the input, so a parse copies
// nothing of an untrusted payload.
func FuzzParseCheckpoint(f *testing.F) {
	kp, chain, _ := signer(f)
	var head [HashSize]byte
	head[0] = 7
	ckpt, err := buildCheckpoint(5, head, time.Unix(1234567890, 42), kp, chain)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ckpt)
	credRaw, err := chain[0].Bytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(credRaw)
	req, err := proto.AppendRequest(nil, kp, chain[0].Subject, proto.KindQuery, time.Unix(1234567890, 0), proto.NewNonce(),
		credRaw, []byte("auth"), []byte("alice"), []byte("pw"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(req)

	f.Fuzz(func(t *testing.T, payload []byte) {
		c, err := parseCheckpoint(payload)
		if err != nil {
			return
		}
		if again := proto.AppendField(c.appendBody(nil), c.sig); !bytes.Equal(again, payload) {
			t.Fatalf("accepted checkpoint re-encodes differently:\n in %x\nout %x", payload, again)
		}
		for name, field := range map[string][]byte{"chain": c.chain, "signed": c.signed, "signature": c.sig} {
			if !within(field, payload) {
				t.Fatalf("the claim's %s is not a view of the payload", name)
			}
		}
	})
}

// within reports whether field lies inside buf's memory.
func within(field, buf []byte) bool {
	if len(field) == 0 {
		return true
	}
	for i := range buf {
		if &buf[i] == &field[0] {
			return i+len(field) <= len(buf)
		}
	}
	return false
}
