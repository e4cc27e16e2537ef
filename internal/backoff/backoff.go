// Package backoff implements capped exponential backoff with full
// jitter, shared by every retry surface in the overlay: the client's one
// retry loop (core's retry), which paces its resilient calls, its
// session resumes and its patient lookups of an inbound push's sender
// key, and the retries a relay shard puts on its drain schedule
// (relay.RetryBackoff). One implementation keeps the retry behaviour —
// and therefore the load a fleet of recovering peers puts on a broker —
// analyzable in one place: attempt n waits a uniformly random duration
// in (0, min(Cap, Base·2ⁿ)], so synchronized failures (a partition
// heals, a broker restarts) decorrelate instead of thundering back in
// lockstep.
package backoff

import (
	"math/rand"
	"sync"
	"time"
)

// Policy is a capped exponential backoff schedule. The zero value is
// not useful; see DefaultPolicy.
type Policy struct {
	// Base is the ceiling of the first delay (attempt 0).
	Base time.Duration
	// Cap bounds the ceiling growth: min(Cap, Base·2ⁿ).
	Cap time.Duration
}

// DefaultPolicy is the schedule retry surfaces use unless configured:
// 100ms doubling to a 5s cap keeps first retries snappy on transient
// blips while a persistent outage settles at one attempt per ~2.5s
// (full-jitter mean) per caller.
var DefaultPolicy = Policy{Base: 100 * time.Millisecond, Cap: 5 * time.Second}

// Ceiling returns the capped exponential ceiling for an attempt
// number, overflow-safe for any attempt.
func (p Policy) Ceiling(attempt int) time.Duration {
	base, cap := p.Base, p.Cap
	if base <= 0 {
		base = DefaultPolicy.Base
	}
	if cap <= 0 {
		cap = DefaultPolicy.Cap
	}
	d := base
	for i := 0; i < attempt; i++ {
		if d >= cap || d > cap/2 {
			return cap
		}
		d *= 2
	}
	if d > cap {
		return cap
	}
	return d
}

// Delay draws the full-jitter delay for an attempt number: uniform in
// (0, Ceiling(attempt)], using the caller-supplied unit-interval
// source (nil = the global math/rand source). A small floor (1/16 of
// the ceiling) keeps pathological draws from turning into busy-loops.
func (p Policy) Delay(attempt int, unit func() float64) time.Duration {
	if unit == nil {
		unit = rand.Float64
	}
	c := p.Ceiling(attempt)
	d := time.Duration(unit() * float64(c))
	if floor := c / 16; d < floor {
		d = floor
	}
	return d
}

// MaxDelaysWithin bounds how many consecutive delays the schedule can
// possibly fit into an interval when every draw lands on its minimum
// (the 1/16-of-ceiling floor). Chaos gates use it to convict a
// reconnect storm: more attempts than this bound means the backoff was
// not honored.
func (p Policy) MaxDelaysWithin(interval time.Duration) int {
	var total time.Duration
	for n := 0; ; n++ {
		total += p.Ceiling(n) / 16
		if total > interval {
			return n + 1
		}
		if n > 1<<20 { // Base=0 defense; unreachable with sane policies
			return n
		}
	}
}

// Source is a concurrency-safe stateful backoff: Next draws the delay
// for the current attempt and advances it; a new source starts the
// schedule over. Seeded sources are deterministic, which the chaos
// scenarios rely on.
type Source struct {
	policy Policy

	mu      sync.Mutex
	rnd     *rand.Rand
	attempt int
}

// NewSource builds a seeded source over a policy.
func NewSource(p Policy, seed int64) *Source {
	return &Source{policy: p, rnd: rand.New(rand.NewSource(seed))}
}

// Next returns the delay for the current attempt and advances the
// attempt counter.
func (s *Source) Next() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.policy.Delay(s.attempt, s.rnd.Float64)
	s.attempt++
	return d
}
