package lru

import "time"

// Window is a bounded table whose entries die at a caller-given expiry:
// the container under the replay guard and the session-identifier table
// (internal/core) and the idempotency dedup table (internal/broker). It
// is a binary min-heap on expiry plus a key → heap-position index, so the
// two things a window does on every insert — drop what has expired, and
// at capacity give up the entry with the least time left — both start at
// the heap's root. Get is O(1); Put and Delete are O(log n) per entry they
// insert or remove, and no operation walks the table.
//
// Window takes no lock: its owner already holds one around the
// check-then-insert it needs to be atomic. The clock is the caller's,
// as for Cache. An entry is live while now ≤ expiry.
type Window[K comparable, V any] struct {
	cap  int
	at   map[K]int32
	heap []slot[K, V]
}

// slot is one heap entry. The expiry is int64 nanoseconds, not a
// time.Time: 8 bytes against 24, in a table that is full under load.
type slot[K comparable, V any] struct {
	exp int64
	key K
	val V
}

// NewWindow creates a window holding at most capacity entries.
// Capacities below one are raised to one. It returns a value for the
// owner to hold as a field beside the lock that guards it; the zero
// Window is not usable.
func NewWindow[K comparable, V any](capacity int) Window[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return Window[K, V]{cap: capacity, at: make(map[K]int32)}
}

// Len reports how many entries the window holds, counting any that have
// expired since the last Put.
func (w *Window[K, V]) Len() int { return len(w.heap) }

// Get returns the live value for key, if any.
func (w *Window[K, V]) Get(key K, now time.Time) (V, bool) {
	if i, ok := w.at[key]; ok && w.heap[i].exp >= now.UnixNano() {
		return w.heap[i].val, true
	}
	var zero V
	return zero, false
}

// Put drops every entry that expired before now, then inserts key or
// replaces its value and expiry. If a new key finds the window still
// full, the entry closest to expiry is evicted to make room and Put
// reports true: an entry was dropped while still live.
func (w *Window[K, V]) Put(key K, val V, expiry, now time.Time) (evictedLive bool) {
	for n := now.UnixNano(); len(w.heap) > 0 && w.heap[0].exp < n; {
		w.pop()
	}
	s := slot[K, V]{expiry.UnixNano(), key, val}
	if at, ok := w.at[key]; ok {
		i := int(at)
		if i > 0 && s.exp < w.heap[(i-1)/2].exp {
			w.up(i, s)
		} else {
			w.down(i, s)
		}
		return false
	}
	if len(w.heap) >= w.cap {
		w.pop()
		evictedLive = true
	}
	w.heap = append(w.heap, s)
	w.up(len(w.heap)-1, s)
	return evictedLive
}

// Delete drops key's entry, live or expired, and reports whether there
// was one. O(log n): the last entry takes the hole and settles from it.
func (w *Window[K, V]) Delete(key K) bool {
	i, ok := w.at[key]
	if ok {
		w.remove(int(i))
	}
	return ok
}

// pop removes the root: the entry with the earliest expiry.
func (w *Window[K, V]) pop() { w.remove(0) }

// remove takes out the entry at position i.
func (w *Window[K, V]) remove(i int) {
	delete(w.at, w.heap[i].key)
	last := len(w.heap) - 1
	s := w.heap[last]
	w.heap[last] = slot[K, V]{} // release the key and value to the collector
	w.heap = w.heap[:last]
	if i == last {
		return
	}
	if i > 0 && s.exp < w.heap[(i-1)/2].exp {
		w.up(i, s)
	} else {
		w.down(i, s)
	}
}

// set stores s at position i and records the position.
func (w *Window[K, V]) set(i int, s slot[K, V]) {
	w.heap[i] = s
	w.at[s.key] = int32(i)
}

// up places s at the hole i or above it, moving later-expiring
// ancestors down.
func (w *Window[K, V]) up(i int, s slot[K, V]) {
	for i > 0 {
		p := (i - 1) / 2
		if w.heap[p].exp <= s.exp {
			break
		}
		w.set(i, w.heap[p])
		i = p
	}
	w.set(i, s)
}

// down places s at the hole i or below it, moving each level's
// earlier-expiring child up.
func (w *Window[K, V]) down(i int, s slot[K, V]) {
	for {
		c := 2*i + 1
		if c >= len(w.heap) {
			break
		}
		if c+1 < len(w.heap) && w.heap[c+1].exp < w.heap[c].exp {
			c++
		}
		if s.exp <= w.heap[c].exp {
			break
		}
		w.set(i, w.heap[c])
		i = c
	}
	w.set(i, s)
}
