package proto

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"sync"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/lru"
)

// The signed-request form of every request one peer signs for one verifier
// — a client's login and heartbeat for its broker, a broker's query
// to the user database and its answer. This file alone knows the layout:
//
//	kind u8 ‖ time i64 ns ‖ nonce 16 ‖ the kind's fields in order, each u16 length ‖ bytes ‖ u16 length ‖ signature
//
// The signature covers requestLabel, every byte in front of its length and
// the peer ID of the verifier the request is for, which rides in no field:
// a request signed for one verifier — and re-sealed by it — does not verify
// at another. A login and a query are signed, then sealed whole.
//
// A credential (package cred) and an audit checkpoint (package audit) are
// signed forms of the same shape, each under a label of its own: a kind byte
// from the one kind space below, fields written by AppendField and
// AppendTime and read back by a Reader, and a u16-length signature last. So
// no form's bytes are read as another's: each is refused at its kind byte.
//
// Reader is the one reader of the big-endian forms: the signed request,
// the credential and the audit checkpoint, and package core's message
// header, round and slice, which are laid out otherwise and read through
// it all the same. The durable logs' little-endian record bodies have
// seglog.Reader.

// RequestKind is the first byte of every signed form; for a request it fixes
// the request's fields.
type RequestKind uint8

const (
	KindLogin      RequestKind = 1 + iota // S_SKCl(username, password, PKCl), sealed to the broker
	KindHeartbeat                         // renews a presence lease
	_                                     // reserved: a retired kind's byte, never reused
	KindQuery                             // a broker's question to the user database, sealed to it
	KindAnswer                            // the database's answer, under its query's nonce
	KindCredential                        // Cred_i^j, package cred's form; no request
	KindCheckpoint                        // an audit journal's signed seal, package audit's form; no request
)

// Field positions, in wire order. A query carries the signer's credential
// first, as it was issued; a heartbeat carries none, its verifier holds the
// credential it issued at the login that granted the lease.
const (
	LoginUser, LoginPass, LoginPeer, LoginKey, LoginAgree, LoginSid = 0, 1, 2, 3, 4, 5 // key: PKIX DER; agree: keys.ShareSize bytes
	HeartbeatLease, HeartbeatSeq                                    = 0, 1             // seq: u64
	QueryCred, QueryOp, QueryUser, QueryPass                        = 0, 1, 2, 3
	AnswerErr, AnswerGroups                                         = 0, 1 // err: "" on success; groups: comma separated
)

// requestKinds is each kind's field count (0: no kind) and whether its nonce
// enters the verifier's table: a login is single-use by its session
// identifier, a heartbeat by its sequence number, an answer by its query's.
var requestKinds = [256]struct {
	fields int
	once   bool
}{KindLogin: {6, false}, KindHeartbeat: {2, false}, KindQuery: {4, true}, KindAnswer: {2, false}}

const (
	NonceSize   = 16              // the length of a request nonce
	RequestSkew = 2 * time.Minute // how far a request's time may lie from its verifier's clock
	// nonceCapacity bounds the nonces a verifier remembers: one per query
	// inside 2·RequestSkew, so 4,096 is 17 a second sustained.
	nonceCapacity = 4096
	signedStack   = 512 // room for what a login's signature covers, on the stack
	// requestLabel separates a request signature from every other one.
	requestLabel = "jxta-overlay/signed-request/v1"
)

// Refusals of the form itself; a verifier's own checks are its own errors.
var (
	ErrRequestMalformed = errors.New("proto: malformed signed request")
	ErrRequestSignature = errors.New("proto: request signature does not verify")
	ErrRequestStale     = errors.New("proto: request time outside the verifier's window")
	ErrRequestReplayed  = errors.New("proto: request nonce already admitted")
)

// Request is a signed request as its verifier read it; its fields are views
// of the bytes it was read from.
type Request struct {
	At     time.Time
	Nonce  [NonceSize]byte
	fields [6][]byte // a login's six at most
	signed []byte    // every byte in front of the signature's length
	sig    []byte
}

// Field returns the request's field i (one of its kind's positions).
func (r *Request) Field(i int) []byte { return r.fields[i] }

// NewNonce draws a fresh request nonce.
func NewNonce() (n [NonceSize]byte) {
	_, _ = rand.Read(n[:]) // it ends the program rather than return an error
	return n
}

// AppendRequest appends to dst a request of kind, stamped at and carrying
// nonce and the kind's fields in order, signed by kp for the verifier whose
// peer ID is audience.
func AppendRequest(dst []byte, kp *keys.KeyPair, audience keys.PeerID, kind RequestKind, at time.Time, nonce [NonceSize]byte, fields ...[]byte) ([]byte, error) {
	if n := requestKinds[kind].fields; n == 0 || len(fields) != n {
		return nil, ErrRequestMalformed
	}
	size := 1 + 8 + NonceSize + 2 + (kp.Bits()+7)/8
	for _, f := range fields {
		if len(f) > MaxField {
			return nil, ErrFieldTooLong
		}
		size += 2 + len(f)
	}
	start := len(dst)
	dst = append(append(make([]byte, 0, start+size), dst...), byte(kind))
	dst = append(binary.BigEndian.AppendUint64(dst, uint64(at.UnixNano())), nonce[:]...)
	for _, f := range fields {
		dst = AppendField(dst, f)
	}
	var buf [signedStack]byte
	sig, err := kp.Sign(signedBytes(buf[:0], dst[start:], audience))
	if err != nil {
		return nil, err
	}
	return AppendField(dst, sig), nil
}

// signedBytes appends to dst what a request's signature covers.
func signedBytes(dst, signed []byte, audience keys.PeerID) []byte {
	return append(append(append(dst, requestLabel...), signed...), audience...)
}

// parseRequest reads raw as a request of kind: that kind byte, its number of
// fields, every length inside raw and nothing behind the signature.
func parseRequest(raw []byte, kind RequestKind) (r Request, ok bool) {
	n := requestKinds[kind].fields
	if n == 0 || len(raw) == 0 || raw[0] != byte(kind) {
		return r, false
	}
	in := NewReader(raw[1:])
	r.At = time.Unix(0, int64(in.Uint(8)))
	copy(r.Nonce[:], in.Bytes(NonceSize))
	for i := range n {
		r.fields[i] = in.Field()
	}
	r.signed = raw[:len(raw)-in.Len()]
	r.sig = in.Field()
	return r, len(r.sig) > 0 && in.Done()
}

// MaxField is the longest field a u16 length admits.
const MaxField = 0xffff

// ErrFieldTooLong refuses to write a field longer than MaxField.
var ErrFieldTooLong = errors.New("proto: field longer than 65535 bytes")

// AppendField appends f behind its u16 length; f is at most MaxField bytes.
func AppendField[F ~string | ~[]byte](dst []byte, f F) []byte {
	return append(binary.BigEndian.AppendUint16(dst, uint16(len(f))), f...)
}

// AppendTime appends an instant as i64 seconds ‖ u32 nanoseconds: every
// instant a time.Time can name, where UnixNano wraps 292 years either side
// of 1970.
func AppendTime(dst []byte, t time.Time) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.Unix()))
	return binary.BigEndian.AppendUint32(dst, uint32(t.Nanosecond()))
}

// Reader reads a signed form's fields in order, each a view of the bytes it
// reads. A read that does not fit fails the Reader: it and every later read
// return zero values, and Done reports false.
type Reader struct {
	rest []byte
	bad  bool
}

// NewReader reads b.
func NewReader(b []byte) Reader { return Reader{rest: b} }

// Bytes reads the next n bytes.
func (r *Reader) Bytes(n int) []byte {
	if r.bad || len(r.rest) < n {
		r.bad = true
		return nil
	}
	v := r.rest[:n:n]
	r.rest = r.rest[n:]
	return v
}

// Uint reads an n-byte big-endian unsigned integer, n at most 8.
func (r *Reader) Uint(n int) (v uint64) {
	for _, b := range r.Bytes(n) {
		v = v<<8 | uint64(b)
	}
	return v
}

// Field reads a field AppendField wrote: never nil unless the read failed.
func (r *Reader) Field() []byte { return r.Bytes(int(r.Uint(2))) }

// Time reads an instant AppendTime wrote. A nanosecond count of a second or
// more fails the read: an instant has the one encoding AppendTime gives it.
func (r *Reader) Time() time.Time {
	secs, ns := r.Uint(8), r.Uint(4)
	if r.bad = r.bad || ns >= 1e9; r.bad {
		return time.Time{}
	}
	return time.Unix(int64(secs), int64(ns)).UTC()
}

// Rest reads every byte left.
func (r *Reader) Rest() []byte { return r.Bytes(len(r.rest)) }

// Len is how many bytes are left to read.
func (r *Reader) Len() int { return len(r.rest) }

// Done reports whether every read fitted and nothing is left.
func (r *Reader) Done() bool { return !r.bad && len(r.rest) == 0 }

// RequestGuard is a verifier's half of the form: the peer ID requests must be
// signed for, and the nonces it admitted. Safe for concurrent use.
type RequestGuard struct {
	id keys.PeerID
	mu sync.Mutex
	// seen holds each admitted nonce for 2·RequestSkew, while a replay could
	// pass the time check whichever way the signer's clock is off; it is
	// made on the first admit. Full, the nonce closest to expiry goes.
	seen *lru.Window[[NonceSize]byte, struct{}]
}

// NewRequestGuard is the guard of the verifier whose peer ID is id.
func NewRequestGuard(id keys.PeerID) *RequestGuard { return &RequestGuard{id: id} }

// Open is the one way a verifier reads a signed request. It admits raw as a
// request of kind signed for this guard's verifier, in order: the layout
// (the kind, its fields, every length, no trailing byte); the signer's key,
// which signer finds from the request's fields (its refusal is returned as
// it is); the signature; the time, within RequestSkew of now; and, for a
// kind with nothing else single-use, a nonce not admitted inside the window.
func (g *RequestGuard) Open(raw []byte, kind RequestKind, now time.Time, signer func(*Request) (*keys.PublicKey, error)) (*Request, error) {
	r, ok := parseRequest(raw, kind)
	if !ok {
		return nil, ErrRequestMalformed
	}
	key, err := signer(&r)
	if err != nil {
		return nil, err
	}
	var buf [signedStack]byte
	switch {
	case key.Verify(signedBytes(buf[:0], r.signed, g.id), r.sig) != nil:
		return nil, ErrRequestSignature
	case now.Sub(r.At).Abs() > RequestSkew:
		return nil, ErrRequestStale
	case requestKinds[kind].once && !g.admit(r.Nonce, now):
		return nil, ErrRequestReplayed
	}
	return &r, nil
}

// admit records nonce as seen at now, or reports false when it was seen
// inside the window.
func (g *RequestGuard) admit(nonce [NonceSize]byte, now time.Time) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.seen == nil {
		w := lru.NewWindow[[NonceSize]byte, struct{}](nonceCapacity)
		g.seen = &w
	}
	if _, dup := g.seen.Get(nonce, now); dup {
		return false
	}
	g.seen.Put(nonce, struct{}{}, now.Add(2*RequestSkew), now)
	return true
}
