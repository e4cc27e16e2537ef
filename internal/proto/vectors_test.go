package proto

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"jxtaoverlay/internal/keys"
)

// requestVector is one signed request as AppendRequest wrote it under the
// fixture key: its bytes in hex and the fields they decode to.
type requestVector struct {
	Name     string
	Hex      string
	Kind     RequestKind
	Audience keys.PeerID
	At       int64
	Nonce    []byte
	Fields   [][]byte
	Sig      []byte
}

// requestVectors reads testdata/vectors/request.json: one request of each
// kind, signed with the fixture key of internal/core/testdata, whose
// vectors are signed with it too.
func requestVectors(tb testing.TB) (*keys.KeyPair, []requestVector) {
	tb.Helper()
	pem, err := os.ReadFile("../core/testdata/fuzz_open_key.pem")
	if err != nil {
		tb.Fatal(err)
	}
	fixture, err := keys.ParseKeyPairPEM(pem)
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/vectors/request.json")
	if err != nil {
		tb.Fatal(err)
	}
	var vs []requestVector
	if err := json.Unmarshal(raw, &vs); err != nil {
		tb.Fatal(err)
	}
	return fixture, vs
}

// TestRequestVectors: every request vector opens, as its kind, for its
// audience at its own time under the fixture key, to its fields; its
// fields signed again with that key (RSA PKCS #1 v1.5 is deterministic)
// are its bytes; and it is refused as each other kind, before its signer
// is asked for a key. The vectors hold one request of each kind.
func TestRequestVectors(t *testing.T) {
	fixture, vs := requestVectors(t)
	kinds := []RequestKind{KindLogin, KindHeartbeat, KindQuery, KindAnswer}
	seen := map[RequestKind]bool{}
	for _, v := range vs {
		raw, err := hex.DecodeString(v.Hex)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		at := time.Unix(0, v.At)
		r, err := NewRequestGuard(v.Audience).Open(raw, v.Kind, at, func(*Request) (*keys.PublicKey, error) {
			return fixture.Public(), nil
		})
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if !r.At.Equal(at) || !bytes.Equal(r.Nonce[:], v.Nonce) || !bytes.Equal(r.sig, v.Sig) || len(v.Fields) != requestKinds[v.Kind].fields {
			t.Fatalf("%s: opened at %v, nonce %x, signature %x; want the vector's, and its kind's %d fields", v.Name, r.At, r.Nonce, r.sig, requestKinds[v.Kind].fields)
		}
		for i, f := range v.Fields {
			if !bytes.Equal(r.Field(i), f) {
				t.Fatalf("%s: field %d = %x, want %x", v.Name, i, r.Field(i), f)
			}
		}
		again, err := AppendRequest(nil, fixture, v.Audience, v.Kind, at, r.Nonce, v.Fields...)
		if err != nil || !bytes.Equal(again, raw) {
			t.Fatalf("%s: signed again as\n%x\nwant\n%x (%v)", v.Name, again, raw, err)
		}
		for _, k := range kinds {
			if k == v.Kind {
				continue
			}
			_, err := NewRequestGuard(v.Audience).Open(raw, k, at, func(*Request) (*keys.PublicKey, error) {
				t.Fatalf("%s read as kind %d asked for a signer", v.Name, k)
				return nil, nil
			})
			if !errors.Is(err, ErrRequestMalformed) {
				t.Fatalf("%s read as kind %d: %v, want %v", v.Name, k, err, ErrRequestMalformed)
			}
		}
		if seen[v.Kind] {
			t.Fatalf("%s: a second vector of kind %d", v.Name, v.Kind)
		}
		seen[v.Kind] = true
	}
	for _, k := range kinds {
		if !seen[k] {
			t.Fatalf("no vector of kind %d", k)
		}
	}
}
