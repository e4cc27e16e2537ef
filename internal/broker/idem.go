package broker

// Idempotency dedup window. A resilient client that retries a mutating
// operation after an ambiguous timeout (request sent, response never
// seen) cannot know whether the broker executed it. When the retry
// carries the same client-minted idempotency key (proto.ElemIdem), the
// broker answers from a (peer, key) → response table instead of
// executing the handler again — at-most-once for acknowledged
// mutations, the same promise the recipient-side ReplayGuard makes for
// message opens, enforced one layer earlier so the mutation itself
// (a relay enqueue, a group create) is not repeated.
//
// The table is bounded the way core.ReplayGuard is, on the same
// container (lru.Window): an entry expires a window after caching,
// every store first drops what has expired, and a store into a full
// table evicts the entry closest to expiry (counted: a retry of that
// mutation inside its window would now re-execute). A lookup is one
// map probe; a store is O(log idemMaxEntries), full or not. Only
// successful responses are cached — a refused operation performed no
// mutation, so retrying it must re-execute, and transient refusals
// (rate-limited, quota) must not be pinned for the window.

import (
	"sync"
	"time"

	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/lru"
)

const (
	// idemWindow bounds how long an acknowledged response is replayable.
	// It must comfortably exceed the longest retry schedule a client
	// runs (backoff cap ~5s, a handful of attempts) — 2 minutes matches
	// the ReplayGuard freshness window.
	idemWindow = 2 * time.Minute
	// idemMaxEntries bounds table memory; at the default window this
	// admits ~34 acknowledged mutations/sec before eviction pressure.
	idemMaxEntries = 4096
	// idemMaxKeyLen bounds what one entry can pin: clients mint
	// "ik-" + a base-36 counter, 16 bytes at most.
	idemMaxKeyLen = 64
)

// idemKey scopes a client-minted key to the peer that presented it:
// peers cannot collide with (or probe) each other's cached responses,
// and the lookup — which runs on EVERY mutating dispatch carrying a
// key, hits and misses alike — compares two strings instead of
// building one (zero allocations, held by TestGateIdemHit).
type idemKey struct {
	peer keys.PeerID
	key  string
}

// idemCache is the broker's dedup table, under its own mutex (off the
// read-mostly broker lock).
type idemCache struct {
	mu          sync.Mutex
	seen        lru.Window[idemKey, *endpoint.Message]
	evictedLive uint64
}

func newIdemCache() *idemCache {
	return &idemCache{seen: lru.NewWindow[idemKey, *endpoint.Message](idemMaxEntries)}
}

// lookup returns the cached response for a (peer, key) entry live at now,
// the broker's time.
func (c *idemCache) lookup(from keys.PeerID, key string, now time.Time) (*endpoint.Message, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seen.Get(idemKey{from, key}, now)
}

// store caches a response under (peer, key) for idemWindow from now;
// storing a key again replaces the response and restarts its window.
func (c *idemCache) store(from keys.PeerID, key string, resp *endpoint.Message, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seen.Put(idemKey{from, key}, resp, now.Add(idemWindow), now) {
		c.evictedLive++
	}
}

// IdemEntries reports the idempotency dedup window's entry count.
func (b *Broker) IdemEntries() int {
	b.idem.mu.Lock()
	defer b.idem.mu.Unlock()
	return b.idem.seen.Len()
}

// IdemEvictions reports how many cached responses the dedup window gave
// up while still live, to make room in a full table.
func (b *Broker) IdemEvictions() uint64 {
	b.idem.mu.Lock()
	defer b.idem.mu.Unlock()
	return b.idem.evictedLive
}
