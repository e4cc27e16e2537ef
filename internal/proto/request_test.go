package proto

import (
	"bytes"
	"errors"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jxtaoverlay/internal/keys"
)

func mustKey(seed int64) *keys.KeyPair {
	kp, err := keys.KeyPairFrom(rand.New(rand.NewSource(seed)), keys.DefaultRSABits)
	if err != nil {
		panic(err)
	}
	return kp
}

var (
	signerKP = mustKey(700)
	otherKP  = mustKey(701)
)

const verifierID = keys.PeerID("urn:jxta:cbid-verifier")

// sampleFields is one request of each kind's fields.
var sampleFields = map[RequestKind][][]byte{
	KindLogin:     {[]byte("alice"), []byte("pw"), []byte("urn:jxta:cbid-alice"), []byte("der"), make([]byte, keys.ShareSize), []byte("sid")},
	KindHeartbeat: {[]byte("ls-1"), make([]byte, 8)},
	KindQuery:     {[]byte("<Credential/>"), []byte("auth"), []byte("alice"), []byte("pw")},
	KindAnswer:    {nil, []byte("math,art")},
}

func sample(t *testing.T, kind RequestKind, audience keys.PeerID, at time.Time) ([]byte, [NonceSize]byte) {
	t.Helper()
	nonce := NewNonce()
	raw, err := AppendRequest(nil, signerKP, audience, kind, at, nonce, sampleFields[kind]...)
	if err != nil {
		t.Fatal(err)
	}
	return raw, nonce
}

func bySigner(*Request) (*keys.PublicKey, error) { return signerKP.Public(), nil }

// TestRequestRoundTrip: every kind opens at its verifier as it was
// signed, every field a view of the bytes it was read from.
func TestRequestRoundTrip(t *testing.T) {
	now := time.Now()
	for kind, fields := range sampleFields {
		raw, nonce := sample(t, kind, verifierID, now)
		r, err := NewRequestGuard(verifierID).Open(raw, kind, now, bySigner)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if !r.At.Equal(now) || r.Nonce != nonce {
			t.Fatalf("kind %d read as (%v, %x)", kind, r.At, r.Nonce)
		}
		at := 1 + 8 + NonceSize
		for i, f := range fields {
			if !bytes.Equal(r.Field(i), f) {
				t.Fatalf("kind %d field %d = %q, want %q", kind, i, r.Field(i), f)
			}
			if at += 2; len(f) > 0 && &r.Field(i)[0] != &raw[at] {
				t.Fatalf("kind %d field %d is not a view of the request", kind, i)
			}
			at += len(f)
		}
	}
}

// TestRequestRefusals: the form refuses another kind's bytes, a byte in
// front of or behind the request, every truncation, a request signed for
// another verifier or by another key, any one byte flipped, and a time
// outside the window; a signer's own refusal comes back as it is.
func TestRequestRefusals(t *testing.T) {
	now := time.Now()
	raw, _ := sample(t, KindQuery, verifierID, now)
	open := func(raw []byte, kind RequestKind, at time.Time, signer func(*Request) (*keys.PublicKey, error)) error {
		_, err := NewRequestGuard(verifierID).Open(raw, kind, at, signer)
		return err
	}
	for kind := range sampleFields {
		if kind != KindQuery {
			if err := open(raw, kind, now, bySigner); !errors.Is(err, ErrRequestMalformed) {
				t.Errorf("a query opened as kind %d: %v, want ErrRequestMalformed", kind, err)
			}
		}
	}
	if err := open(append(bytes.Clone(raw), 0), KindQuery, now, bySigner); !errors.Is(err, ErrRequestMalformed) {
		t.Errorf("a trailing byte: %v", err)
	}
	for n := range len(raw) {
		if err := open(raw[:n], KindQuery, now, bySigner); !errors.Is(err, ErrRequestMalformed) {
			t.Fatalf("cut to %d bytes: %v", n, err)
		}
	}
	elsewhere, _ := sample(t, KindQuery, "urn:jxta:cbid-another", now)
	if err := open(elsewhere, KindQuery, now, bySigner); !errors.Is(err, ErrRequestSignature) {
		t.Errorf("signed for another verifier: %v", err)
	}
	byOther := func(*Request) (*keys.PublicKey, error) { return otherKP.Public(), nil }
	if err := open(raw, KindQuery, now, byOther); !errors.Is(err, ErrRequestSignature) {
		t.Errorf("checked under another key: %v", err)
	}
	for i := range raw {
		flipped := bytes.Clone(raw)
		flipped[i] ^= 0x01
		if err := open(flipped, KindQuery, now, bySigner); err == nil {
			t.Fatalf("byte %d flipped: opened", i)
		}
	}
	for _, at := range []time.Time{now.Add(RequestSkew + time.Nanosecond), now.Add(-RequestSkew - time.Nanosecond)} {
		if err := open(raw, KindQuery, at, bySigner); !errors.Is(err, ErrRequestStale) {
			t.Errorf("opened at %v from its time: %v, want ErrRequestStale", at.Sub(now), err)
		}
	}
	if err := open(raw, KindQuery, now.Add(RequestSkew), bySigner); err != nil {
		t.Errorf("at the window's edge: %v", err)
	}
	mine := errors.New("the verifier's own refusal")
	if err := open(raw, KindQuery, now, func(*Request) (*keys.PublicKey, error) { return nil, mine }); err != mine {
		t.Errorf("signer's refusal came back as %v", err)
	}
	if _, err := AppendRequest(nil, signerKP, verifierID, KindQuery, now, [NonceSize]byte{}); !errors.Is(err, ErrRequestMalformed) {
		t.Errorf("a query without its fields was signed: %v", err)
	}
}

// TestRequestNonceOnlyWhereNothingElseIsSingleUse: a query opens once; a
// login (its session identifier), a heartbeat (its sequence number) and an
// answer (its query's nonce) are single-use by a field the verifier checks,
// and take no entry in the table.
func TestRequestNonceOnlyWhereNothingElseIsSingleUse(t *testing.T) {
	now := time.Now()
	for kind := range sampleFields {
		g := NewRequestGuard(verifierID)
		raw, _ := sample(t, kind, verifierID, now)
		if _, err := g.Open(raw, kind, now, bySigner); err != nil {
			t.Fatal(err)
		}
		_, err := g.Open(raw, kind, now, bySigner)
		if once := kind == KindQuery; once != errors.Is(err, ErrRequestReplayed) {
			t.Errorf("kind %d opened twice: %v", kind, err)
		}
		if tabled := g.seen != nil; tabled != (kind == KindQuery) {
			t.Errorf("kind %d: nonce table made = %v", kind, tabled)
		}
	}
}

// TestNonceAdmitConcurrent: a verifier opens requests on every delivery
// goroutine at once. One query opened from eight goroutines is admitted
// once, and each goroutine's own query is admitted, while the table is
// made by whichever goroutine admits first.
func TestNonceAdmitConcurrent(t *testing.T) {
	const workers = 8
	now := time.Now()
	shared, _ := sample(t, KindQuery, verifierID, now)
	own := make([][]byte, workers)
	for i := range own {
		own[i], _ = sample(t, KindQuery, verifierID, now)
	}
	g := NewRequestGuard(verifierID)
	var admitted atomic.Int32
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.Open(shared, KindQuery, now, bySigner); err == nil {
				admitted.Add(1)
			} else if !errors.Is(err, ErrRequestReplayed) {
				t.Errorf("the shared query: %v", err)
			}
			if _, err := g.Open(own[i], KindQuery, now, bySigner); err != nil {
				t.Errorf("worker %d's own query: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if n := admitted.Load(); n != 1 {
		t.Fatalf("the shared query was admitted %d times, want once", n)
	}
	if n := g.seen.Len(); n != workers+1 {
		t.Fatalf("%d nonces held, want %d", n, workers+1)
	}
}

// nonceOf is a nonce spelling s.
func nonceOf(s string) (n [NonceSize]byte) {
	copy(n[:], s)
	return n
}

// TestNoncePastWindowForgotten: a nonce is refused for as long as a replay
// of its request could pass the time check, 2·RequestSkew, and is then
// dropped by the next admit, not kept against the bound.
func TestNoncePastWindowForgotten(t *testing.T) {
	g, base := NewRequestGuard(verifierID), time.Now()
	if !g.admit(nonceOf("n"), base) {
		t.Fatal("first admit refused")
	}
	if g.admit(nonceOf("n"), base.Add(2*RequestSkew)) {
		t.Fatal("nonce at the window's edge admitted, want a replay")
	}
	past := base.Add(2*RequestSkew + time.Nanosecond)
	if !g.admit(nonceOf("other"), past) {
		t.Fatal("other nonce refused")
	}
	if n := g.seen.Len(); n != 1 {
		t.Fatalf("%d nonces held after the first one's window, want 1", n)
	}
	if !g.admit(nonceOf("n"), past) {
		t.Fatal("nonce past its window refused, want it forgotten")
	}
}

// TestNonceTableStaysAtCapacity: full, the table gives up the nonce closest
// to expiry — the first admitted — and only that one.
func TestNonceTableStaysAtCapacity(t *testing.T) {
	g, base := NewRequestGuard(verifierID), time.Now()
	for i := 0; i < nonceCapacity; i++ {
		if !g.admit(nonceOf("n"+strconv.Itoa(i)), base.Add(time.Duration(i)*time.Millisecond)) {
			t.Fatal("fresh nonce refused")
		}
	}
	now := base.Add(time.Minute)
	if !g.admit(nonceOf("one more"), now) {
		t.Fatal("fresh nonce refused")
	}
	if n := g.seen.Len(); n != nonceCapacity {
		t.Fatalf("%d nonces held, want %d", n, nonceCapacity)
	}
	if g.admit(nonceOf("n1"), now) {
		t.Fatal("second-oldest nonce admitted: only the one closest to expiry may go")
	}
	if !g.admit(nonceOf("n0"), now) {
		t.Fatal("oldest nonce refused, want it given up")
	}
}

// TestNonceAdmitDoesNotScan: an admit on a full table costs what it costs
// on an empty one — no walk over the table (core's
// TestReplayGuardAdmitDoesNotScan measure: 10,000 admits against 10,000
// walks of a map the table's size).
func TestNonceAdmitDoesNotScan(t *testing.T) {
	const admits = 10000
	g, now := NewRequestGuard(verifierID), time.Now()
	nonces := make([][NonceSize]byte, nonceCapacity+admits)
	for i := range nonces {
		nonces[i] = nonceOf("nonce-" + strconv.Itoa(i))
	}
	for _, n := range nonces[:nonceCapacity] {
		g.admit(n, now)
	}
	table := make(map[int]int64, nonceCapacity)
	for i := 0; i < nonceCapacity; i++ {
		table[i] = 0
	}
	start, visited := time.Now(), 0
	for i := 0; i < admits/100; i++ {
		for range table {
			visited++
		}
	}
	scan := time.Since(start) * 100
	if visited != nonceCapacity*admits/100 {
		t.Fatalf("walked %d entries, want %d", visited, nonceCapacity*admits/100)
	}

	start = time.Now()
	for _, n := range nonces[nonceCapacity:] {
		if !g.admit(n, now) {
			t.Fatal("fresh nonce refused")
		}
	}
	took := time.Since(start)
	t.Logf("%d admits %v, %d table walks %v", admits, took, admits, scan)
	if took > scan/4 {
		t.Errorf("%d admits on a full table took %v; one table walk per admit would take %v", admits, took, scan)
	}
	if n := g.seen.Len(); n != nonceCapacity {
		t.Errorf("%d nonces held after admits at capacity, want %d", n, nonceCapacity)
	}
}
