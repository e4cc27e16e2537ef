// Package admission implements the broker's self-protection layer:
// per-credential token-bucket rate limiting with offender tracking.
//
// Every broker operation consumes one token from the bucket of the
// invoking credential. The key is the peer ID, which for secure logins
// IS the credential fingerprint: CBID binding (keys.VerifyCBID) ties
// the peer ID to the credentialed public key, so a client cannot dodge
// its bucket without minting a new identity — which costs it the whole
// secureConnection/secureLogin handshake, itself rate limited. The
// broker keys each op by the frame's source peer ID, though, which the
// sender writes: nothing stops one sender naming another and spending
// that peer's bucket (SECURITY.md, "Claimed source of a broker op").
//
// What this bounds and what it does not: a limiter caps how much
// broker CPU, queue space and fan-out one authenticated identity can
// consume — resource exhaustion, the "merely enthusiastic workload" as
// much as the hostile one. It does NOT make identities expensive: an
// adversary who can register many users (or mint many CBIDs and pass
// login) gets a fresh bucket per identity. Sybil cost lives in the
// credential issuance policy, not here (see SECURITY.md, "Admission
// control").
package admission

import (
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes a Limiter.
type Config struct {
	// Rate is the sustained budget in operations per second per
	// credential (0 = 50).
	Rate float64
	// Burst is the bucket depth: how many operations a credential may
	// issue back-to-back after an idle period (0 = 2*Rate, min 8).
	// Login handshakes cost several operations in a burst, so keep
	// this comfortably above the per-join op count.
	Burst float64
	// OffenseThreshold is how many consecutive refusals escalate a
	// credential to a SecurityAlert (0 = 16). Alerts repeat every
	// threshold refusals, not on each one, so one flooding credential
	// cannot flood the audit stream too.
	OffenseThreshold int
	// MaxTracked bounds the bucket map (0 = 65536). When full, idle
	// buckets (refilled to capacity) are evicted first — forgetting an
	// idle credential is free, its next bucket starts full anyway.
	MaxTracked int
	// Clock is what buckets refill by, fixed at construction (nil: the
	// wall). Allow(who) takes no time, so the limiter keeps its own.
	Clock func() time.Time
}

// Decision reports the outcome of one admission check.
type Decision struct {
	// Allowed is whether the operation may proceed.
	Allowed bool
	// Alert is whether this refusal crossed the offense threshold and
	// should be surfaced as a SecurityAlert audit event.
	Alert bool
	// Offenses is the credential's current consecutive-refusal count.
	Offenses int
}

// Metrics is a snapshot of the limiter's counters.
type Metrics struct {
	// Allowed counts admitted operations.
	Allowed uint64
	// Limited counts refused operations.
	Limited uint64
	// Alerts counts threshold crossings (SecurityAlerts raised).
	Alerts uint64
	// Tracked is the number of credentials currently holding a bucket.
	Tracked int
}

type bucket struct {
	tokens   float64
	last     time.Time
	offenses int
}

// Limiter is a token-bucket admission controller. All methods are safe
// for concurrent use.
type Limiter struct {
	cfg Config

	mu      sync.Mutex
	buckets map[string]*bucket

	allowed atomic.Uint64
	limited atomic.Uint64
	alerts  atomic.Uint64
}

// New builds a limiter from cfg, applying defaults.
func New(cfg Config) *Limiter {
	if cfg.Rate <= 0 {
		cfg.Rate = 50
	}
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.Rate * 2
		if cfg.Burst < 8 {
			cfg.Burst = 8
		}
	}
	if cfg.OffenseThreshold <= 0 {
		cfg.OffenseThreshold = 16
	}
	if cfg.MaxTracked <= 0 {
		cfg.MaxTracked = 65536
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Limiter{cfg: cfg, buckets: make(map[string]*bucket)}
}

// RetryAfter reports how long an empty bucket takes to refill one
// token: the soonest a refused credential could be admitted again.
// The broker attaches it to rate-limited refusals as a backoff hint.
func (l *Limiter) RetryAfter() time.Duration {
	return time.Duration(float64(time.Second) / l.cfg.Rate)
}

// Allow spends one token from the credential's bucket. Refusals count
// as offenses; a success resets the offense streak (the credential
// backed off and recovered).
func (l *Limiter) Allow(key string) Decision {
	now := l.cfg.Clock()
	l.mu.Lock()
	b := l.fill(key, now)
	if b.tokens >= 1 {
		b.tokens--
		b.offenses = 0
		l.mu.Unlock()
		l.allowed.Add(1)
		return Decision{Allowed: true}
	}
	d := l.offendLocked(b)
	l.mu.Unlock()
	l.limited.Add(1)
	if d.Alert {
		l.alerts.Add(1)
	}
	return d
}

// Offense records a refusal that happened OUTSIDE the limiter — e.g.
// the relay refusing a round because the sender is over its queue
// quota — so quota abuse feeds the same offender escalation as rate
// abuse. It never consumes tokens.
func (l *Limiter) Offense(key string) Decision {
	now := l.cfg.Clock()
	l.mu.Lock()
	b := l.fill(key, now)
	d := l.offendLocked(b)
	l.mu.Unlock()
	if d.Alert {
		l.alerts.Add(1)
	}
	return d
}

// offendLocked bumps the offense streak and decides whether it crossed
// an alert threshold. Caller holds l.mu.
func (l *Limiter) offendLocked(b *bucket) Decision {
	b.offenses++
	alert := b.offenses%l.cfg.OffenseThreshold == 0
	return Decision{Allowed: false, Alert: alert, Offenses: b.offenses}
}

// fill refills (or creates) the credential's bucket up to now. Caller
// holds l.mu.
func (l *Limiter) fill(key string, now time.Time) *bucket {
	b, ok := l.buckets[key]
	if !ok {
		if len(l.buckets) >= l.cfg.MaxTracked {
			l.evictLocked(now)
		}
		b = &bucket{tokens: l.cfg.Burst, last: now}
		l.buckets[key] = b
		return b
	}
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens += dt.Seconds() * l.cfg.Rate
		if b.tokens > l.cfg.Burst {
			b.tokens = l.cfg.Burst
		}
	}
	b.last = now
	return b
}

// evictLocked makes room: drop buckets that have fully refilled (an
// idle credential's next bucket starts full, so forgetting it changes
// nothing), then, if every tracked credential is active, the stalest
// one. Caller holds l.mu.
func (l *Limiter) evictLocked(now time.Time) {
	var stalestKey string
	var stalest time.Time
	for k, b := range l.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*l.cfg.Rate >= l.cfg.Burst && b.offenses == 0 {
			delete(l.buckets, k)
			continue
		}
		if stalestKey == "" || b.last.Before(stalest) {
			stalestKey, stalest = k, b.last
		}
	}
	if len(l.buckets) >= l.cfg.MaxTracked && stalestKey != "" {
		delete(l.buckets, stalestKey)
	}
}

// Metrics returns a snapshot of the counters.
func (l *Limiter) Metrics() Metrics {
	l.mu.Lock()
	tracked := len(l.buckets)
	l.mu.Unlock()
	return Metrics{
		Allowed: l.allowed.Load(),
		Limited: l.limited.Load(),
		Alerts:  l.alerts.Load(),
		Tracked: tracked,
	}
}
