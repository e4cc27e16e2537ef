package lru

import "time"

// Window is a bounded table whose entries die at a caller-given expiry:
// the container under the replay guard, the session-identifier table and
// the channel tables (internal/core), the request-nonce table
// (internal/proto) and the idempotency dedup table (internal/broker). It
// is a binary min-heap of (expiry, handle) pairs plus a key → handle
// index, so the two things a window does on every insert — drop what has
// expired, and at capacity give up the entry with the least time left —
// both start at the heap's root. An entry keeps its handle for life and
// records its own heap position, so a sift moves pairs in the array and
// never touches the index: Get is O(1); Put and Delete are O(log n) array
// moves and one index write per entry they insert or remove, and no
// operation walks the table.
//
// Window takes no lock: its owner already holds one around the
// check-then-insert it needs to be atomic. The clock is the caller's,
// as for Cache. An entry is live while now ≤ expiry.
type Window[K comparable, V any] struct {
	cap int
	at  map[K]int32 // key → handle
	n   int         // entries held: heap positions 0..n-1
	// node i is heap position i and handle i at once, two unrelated
	// things that share one array so that the table grows by one
	// allocation at a time. Of its handles, n hold entries; the rest are
	// vacant, chained from free (1 + the first vacant handle, 0 for none).
	node []node[K, V]
	free int32
}

// node is one heap position and one handle. The expiry is int64
// nanoseconds, not a time.Time: 8 bytes against 24, in a table that is
// full under load.
type node[K comparable, V any] struct {
	// Heap position i: the expiry of the entry it holds, and its handle.
	exp int64
	h   int32
	// Handle i: the entry's heap position while it is live; while it is
	// vacant, 1 + the next vacant handle (0 ends the chain), as free is.
	pos int32
	key K
	val V
}

// NewWindow creates a window holding at most capacity entries.
// Capacities below one are raised to one. It returns a value for the
// owner to hold as a field beside the lock that guards it; the zero
// Window holds nothing, and answers Get and Len so, but cannot be Put to.
func NewWindow[K comparable, V any](capacity int) Window[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return Window[K, V]{cap: capacity, at: make(map[K]int32)}
}

// Len reports how many entries the window holds, counting any that have
// expired since the last Put.
func (w *Window[K, V]) Len() int { return w.n }

// Get returns the live value for key, if any.
func (w *Window[K, V]) Get(key K, now time.Time) (V, bool) {
	if h, ok := w.at[key]; ok && w.node[w.node[h].pos].exp >= now.UnixNano() {
		return w.node[h].val, true
	}
	var zero V
	return zero, false
}

// Put drops every entry that expired before now, then inserts key or
// replaces its value and expiry. If a new key finds the window still
// full, the entry closest to expiry is evicted to make room and Put
// reports true: an entry was dropped while still live.
func (w *Window[K, V]) Put(key K, val V, expiry, now time.Time) (evictedLive bool) {
	for n := now.UnixNano(); w.n > 0 && w.node[0].exp < n; {
		w.remove(0)
	}
	exp := expiry.UnixNano()
	if h, ok := w.at[key]; ok {
		w.node[h].val = val
		w.fix(int(w.node[h].pos), exp, h)
		return false
	}
	if w.n >= w.cap {
		w.remove(0) // its handle is the one the new entry takes
		evictedLive = true
	}
	var h int32
	if w.free != 0 {
		h = w.free - 1
		w.free = w.node[h].pos
	} else {
		h = int32(len(w.node))
		w.node = append(w.node, node[K, V]{})
	}
	w.node[h].key, w.node[h].val = key, val
	w.at[key] = h
	w.n++
	w.up(w.n-1, exp, h)
	return evictedLive
}

// Delete drops key's entry, live or expired, and reports whether there
// was one. O(log n): the last heap pair takes the hole and settles from it.
func (w *Window[K, V]) Delete(key K) bool {
	h, ok := w.at[key]
	if ok {
		w.remove(int(w.node[h].pos))
	}
	return ok
}

// remove takes out the entry at heap position i and frees its handle.
func (w *Window[K, V]) remove(i int) {
	h := w.node[i].h
	e := &w.node[h]
	delete(w.at, e.key)
	var zk K
	var zv V
	// Release the key and value to the collector. The node's heap pair is
	// heap position h's, not this entry's, and stays.
	e.key, e.val = zk, zv
	e.pos, w.free = w.free, h+1
	w.n--
	if i < w.n {
		last := &w.node[w.n]
		w.fix(i, last.exp, last.h)
	}
}

// fix places the pair (exp, h) at the hole i, or above or below it.
func (w *Window[K, V]) fix(i int, exp int64, h int32) {
	if i > 0 && exp < w.node[(i-1)/2].exp {
		w.up(i, exp, h)
	} else {
		w.down(i, exp, h)
	}
}

// set stores the pair (exp, h) at heap position i and records the
// position on the handle.
func (w *Window[K, V]) set(i int, exp int64, h int32) {
	w.node[i].exp, w.node[i].h = exp, h
	w.node[h].pos = int32(i)
}

// up places (exp, h) at the hole i or above it, moving later-expiring
// ancestors down.
func (w *Window[K, V]) up(i int, exp int64, h int32) {
	for i > 0 {
		p := (i - 1) / 2
		if w.node[p].exp <= exp {
			break
		}
		w.set(i, w.node[p].exp, w.node[p].h)
		i = p
	}
	w.set(i, exp, h)
}

// down places (exp, h) at the hole i or below it, moving each level's
// earlier-expiring child up.
func (w *Window[K, V]) down(i int, exp int64, h int32) {
	for {
		c := 2*i + 1
		if c >= w.n {
			break
		}
		if c+1 < w.n && w.node[c+1].exp < w.node[c].exp {
			c++
		}
		if exp <= w.node[c].exp {
			break
		}
		w.set(i, w.node[c].exp, w.node[c].h)
		i = c
	}
	w.set(i, exp, h)
}
