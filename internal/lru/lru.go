// Package lru provides a small, concurrency-safe LRU cache with
// per-entry expiry. It backs the signature-verification caches in
// internal/cred and internal/xdsig: verification verdicts are keyed by
// content digest, bounded in number, and must never outlive the validity
// window of the credentials that produced them — hence the explicit
// expiry timestamp on every entry and the caller-supplied clock on
// lookup (the security layer verifies against a caller-chosen "now",
// not the wall clock).
//
// Window (window.go) is the package's other bounded table: ordered by
// expiry instead of by use, caller-locked, for tables that must give up
// the entry with the least time left rather than the least recently
// read — the replay guard, the session-identifier, request-nonce and
// channel tables, and the idempotency dedup window. An insert or a
// removal costs it O(log n) array moves and one write to its index.
package lru

import (
	"container/list"
	"sync"
	"time"
)

// Cache is a bounded LRU map with optional per-entry expiry.
// The zero value is not usable; call New.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[K]*list.Element

	hits   uint64
	misses uint64
}

type entry[K comparable, V any] struct {
	key     K
	val     V
	expires time.Time // zero = never expires
}

// New creates a cache holding at most capacity entries. Capacities below
// one are raised to one. The capacity is a bound, not a forecast: the
// table grows as it fills (as Window's does), so a cache that is built
// for every client session and sees sixteen keys does not hold — or, per
// join, allocate — room for a thousand.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[K]*list.Element),
	}
}

// Get returns the live value for key, if any. An entry whose expiry is
// at or before now is deleted and reported as a miss — expiry is judged
// against the caller's clock so that security code verifying "as of" a
// given instant stays consistent with its own time source.
func (c *Cache[K, V]) Get(key K, now time.Time) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var zero V
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return zero, false
	}
	ent := el.Value.(*entry[K, V])
	if !ent.expires.IsZero() && !now.Before(ent.expires) {
		c.order.Remove(el)
		delete(c.items, key)
		c.misses++
		return zero, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return ent.val, true
}

// Put inserts or replaces the value for key. A zero expires means the
// entry never expires on its own; otherwise the entry dies at expires.
// The least recently used entry is evicted when the cache is full.
func (c *Cache[K, V]) Put(key K, val V, expires time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*entry[K, V])
		ent.val = val
		ent.expires = expires
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val, expires: expires})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
	}
}

// Remove deletes the entry for key and reports whether it existed.
func (c *Cache[K, V]) Remove(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.order.Remove(el)
	delete(c.items, key)
	return true
}

// Purge empties the cache.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	clear(c.items)
}

// Len returns the number of cached entries, expired ones included (they
// are collected lazily on Get).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats reports cumulative hit and miss counts, for diagnostics and
// benchmarks.
func (c *Cache[K, V]) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
