package core

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/lru"
)

// Process-wide replay-guard rejection counters, aggregated across every
// guard instance (clients and brokers alike): a replayed or stale
// secure message is a security signal wherever it lands, and the
// telemetry export reads these with zero per-guard bookkeeping.
var (
	replayRejectedTotal    atomic.Uint64
	staleRejectedTotal     atomic.Uint64
	replayEvictedLiveTotal atomic.Uint64
)

// ReplayStats reports how many messages all ReplayGuards in the process
// have rejected as replayed (digest/nonce already seen) and as stale
// (signed timestamp outside the freshness window).
func ReplayStats() (replayed, stale uint64) {
	return replayRejectedTotal.Load(), staleRejectedTotal.Load()
}

// ReplayEvictions reports how many entries all ReplayGuards in the
// process have given up while a replay of them would still pass the
// freshness check: each is a message the guard can no longer refuse
// (SECURITY.md, "Freshness vs. queue TTL"). It moves only on a guard
// that is admitting more than maxEntries messages per window.
func ReplayEvictions() uint64 { return replayEvictedLiveTotal.Load() }

// The paper's messenger primitives are deliberately stateless and
// best-effort (§4.3): no handshake, no sequence numbers — which means a
// captured secure message can be replayed verbatim and will decrypt and
// verify again. ReplayGuard is the optional hardening the paper's
// "further work" invites: a bounded window of recently seen envelope
// digests plus a freshness bound on the signed timestamp. It keeps the
// primitive stateless on the wire (nothing is negotiated) at the cost of
// per-receiver memory.

// ReplayGuard tracks recently seen secure messages.
type ReplayGuard struct {
	// Window is how far in the past (and future, for clock skew) a
	// message timestamp may lie.
	window time.Duration

	mu sync.Mutex
	// seen holds each admitted digest/nonce until the instant it stops
	// mattering: sentAt + window, the moment the freshness check alone
	// would reject any replay. Keying expiry to the SIGNED timestamp
	// (not the admission clock) is what makes pruning safe: an entry is
	// only ever pruned once a replay of it would fail ErrMessageStale
	// anyway, so a future-dated message (allowed clock skew) stays
	// tracked for up to 2×window rather than being pruned while still
	// replayable. The one exception is a full table: then each admit
	// evicts the live entry closest to expiry (counted by
	// ReplayEvictions). An admit costs O(log maxEntries), full or not.
	seen lru.Window[replayKey, struct{}]
}

// replayKey is a full SHA-256 under a tag that keeps the two things a
// guard remembers apart: wire digests, and sha256(sender ‖ 0 ‖ nonce)
// for group rounds (a signed round header's nonce is of fixed size, so
// the sender and the nonce cannot trade bytes). Fixed size, so admitting
// builds no string.
type replayKey struct {
	kind byte
	sum  [sha256.Size]byte
}

const (
	replayWire byte = iota
	replayRound
)

// NewReplayGuard creates a guard accepting messages within the given
// freshness window (0 = 2 minutes) and remembering up to maxEntries
// digests (0 = 4096).
func NewReplayGuard(window time.Duration, maxEntries int) *ReplayGuard {
	if window <= 0 {
		window = 2 * time.Minute
	}
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	return &ReplayGuard{
		window: window,
		seen:   lru.NewWindow[replayKey, struct{}](maxEntries),
	}
}

// Check admits a message exactly once within the freshness window. The
// wire bytes identify the message (any bit flip would already fail
// decryption or signature checks); sentAt is the signed timestamp from
// the opened envelope. Check and CheckRound are for callers that are no
// node and judge freshness by the wall; a peer's open path (openWire)
// hands admit the peer's own time.
func (g *ReplayGuard) Check(wire []byte, sentAt time.Time) error {
	return g.admit(replayKey{replayWire, sha256.Sum256(wire)}, sentAt, time.Now())
}

// CheckRound admits a group round nonce exactly once per sender within
// the freshness window. Every slice of a round carries the one signed
// header, and the signed nonce names the round whatever bytes carry it:
// it is single-use, and any reuse is a replay.
func (g *ReplayGuard) CheckRound(sender keys.PeerID, nonce []byte, sentAt time.Time) error {
	return g.admit(roundKey(sender, nonce), sentAt, time.Now())
}

func roundKey(sender keys.PeerID, nonce []byte) replayKey {
	var buf [128]byte // sender and nonce fit: hashing them allocates nothing
	b := append(append(append(buf[:0], sender...), 0), nonce...)
	return replayKey{replayRound, sha256.Sum256(b)}
}

// fresh is the guard's time check, and all of it a channel's frame passes:
// the table is for wires with no sequence number to refuse them again by.
func (g *ReplayGuard) fresh(sentAt, now time.Time) bool {
	if d := now.Sub(sentAt); d > g.window || d < -g.window {
		staleRejectedTotal.Add(1)
		return false
	}
	return true
}

// admit is the guard at the time now, the deciding peer's.
func (g *ReplayGuard) admit(key replayKey, sentAt, now time.Time) error {
	if !g.fresh(sentAt, now) {
		return ErrMessageStale
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.seen.Get(key, now); dup {
		replayRejectedTotal.Add(1)
		return ErrMessageReplayed
	}
	if g.seen.Put(key, struct{}{}, sentAt.Add(g.window), now) {
		replayEvictedLiveTotal.Add(1)
	}
	return nil
}

// Len reports how many digests are currently tracked.
func (g *ReplayGuard) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.seen.Len()
}
