package lru

import (
	"math/rand"
	"testing"
	"time"
)

// scanWindow is the table Window replaced under the replay guard and the
// idempotency cache, kept as the oracle: a map, one full pass to drop
// what has expired, a second to find the entry closest to expiry. Which
// of several entries tied for that minimum goes is left to pick, so the
// model test can follow the heap's choice and keep the tables in step.
type scanWindow struct {
	cap int
	m   map[int]scanEntry
}

type scanEntry struct {
	val int
	exp time.Time
}

func (r *scanWindow) get(k int, now time.Time) (int, bool) {
	e, ok := r.m[k]
	if !ok || now.After(e.exp) {
		return 0, false
	}
	return e.val, true
}

func (r *scanWindow) put(k, v int, exp, now time.Time, pick func(tied []int) int) (evictedLive bool) {
	for key, e := range r.m {
		if now.After(e.exp) {
			delete(r.m, key)
		}
	}
	if _, ok := r.m[k]; !ok && len(r.m) >= r.cap {
		var tied []int
		var soonest time.Time
		for key, e := range r.m {
			switch {
			case tied == nil || e.exp.Before(soonest):
				tied, soonest = []int{key}, e.exp
			case e.exp.Equal(soonest):
				tied = append(tied, key)
			}
		}
		delete(r.m, pick(tied))
		evictedLive = true
	}
	r.m[k] = scanEntry{v, exp}
	return evictedLive
}

// checkHeap asserts the structure Window's bounds rest on: every entry
// in the index exactly once at the position the index says, no parent
// expiring after its child, and never more entries than the capacity.
func checkHeap(t *testing.T, w *Window[int, int]) {
	t.Helper()
	if len(w.heap) > w.cap || len(w.at) != len(w.heap) {
		t.Fatalf("cap %d, %d heap slots, %d indexed keys", w.cap, len(w.heap), len(w.at))
	}
	for i, s := range w.heap {
		if at, ok := w.at[s.key]; !ok || int(at) != i {
			t.Fatalf("key %d sits at %d, index says %d (present %v)", s.key, i, at, ok)
		}
		if i > 0 && w.heap[(i-1)/2].exp > s.exp {
			t.Fatalf("slot %d expires before its parent", i)
		}
	}
}

// TestWindowMatchesScanModel drives Window and the two-scan table with
// the same seeded Get/Put/Delete sequences — expiries out of order, already
// past and far ahead, keys stored again while live and after expiry, a
// clock that creeps and jumps — and requires the same answer to every
// Get, the same Len after every step, eviction on the same steps, and
// that each evicted entry was one with the least time left.
func TestWindowMatchesScanModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 16} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			w := NewWindow[int, int](capacity)
			ref := &scanWindow{cap: capacity, m: map[int]scanEntry{}}
			now := t0
			for step := 0; step < 4000; step++ {
				switch rng.Intn(10) {
				case 0:
					now = now.Add(time.Duration(rng.Intn(40)) * time.Second)
				case 1, 2, 3:
					now = now.Add(time.Duration(rng.Intn(3)) * time.Second)
				}
				k := rng.Intn(3*capacity + 2)
				if rng.Intn(8) == 0 {
					_, had := ref.m[k]
					delete(ref.m, k)
					if got := w.Delete(k); got != had || w.Len() != len(ref.m) {
						t.Fatalf("cap %d seed %d step %d: Delete(%d) = %v, Len %d; model %v, %d", capacity, seed, step, k, got, w.Len(), had, len(ref.m))
					}
					checkHeap(t, &w)
					continue
				}
				if rng.Intn(2) == 0 {
					gv, gok := w.Get(k, now)
					rv, rok := ref.get(k, now)
					if gv != rv || gok != rok {
						t.Fatalf("cap %d seed %d step %d: Get(%d) = %d, %v; model %d, %v", capacity, seed, step, k, gv, gok, rv, rok)
					}
					continue
				}
				exp := now.Add(time.Duration(rng.Intn(60)-5) * time.Second)
				got := w.Put(k, step, exp, now)
				want := ref.put(k, step, exp, now, func(tied []int) int {
					for _, key := range tied {
						if _, kept := w.at[key]; !kept {
							return key
						}
					}
					t.Fatalf("cap %d seed %d step %d: Put(%d) kept every soonest-to-expire entry %v and evicted a later one", capacity, seed, step, k, tied)
					return 0
				})
				if got != want {
					t.Fatalf("cap %d seed %d step %d: Put(%d) evictedLive = %v, model %v", capacity, seed, step, k, got, want)
				}
				if w.Len() != len(ref.m) {
					t.Fatalf("cap %d seed %d step %d: Len = %d, model %d", capacity, seed, step, w.Len(), len(ref.m))
				}
				checkHeap(t, &w)
			}
		}
	}
}

// TestWindowRestoreAfterExpiry: storing a key again once it has expired
// is a fresh insert — the dead entry is not counted against the
// capacity and its expiry does not come back.
func TestWindowRestoreAfterExpiry(t *testing.T) {
	w := NewWindow[string, int](2)
	w.Put("a", 1, t1, t0)
	w.Put("b", 2, t2, t0)
	late := t1.Add(time.Second)
	if _, ok := w.Get("a", late); ok {
		t.Fatal("hit on an expired entry")
	}
	if w.Put("a", 3, t2.Add(time.Hour), late) {
		t.Fatal("re-storing an expired key evicted a live entry")
	}
	if v, ok := w.Get("a", t2.Add(time.Minute)); !ok || v != 3 {
		t.Fatalf("Get(a) = %d, %v after re-store, want 3 under the new expiry", v, ok)
	}
	if w.Len() != 2 {
		t.Fatalf("Len = %d, want 2", w.Len())
	}
	// Full of live entries: the next new key costs the soonest one, b.
	if !w.Put("c", 4, t2.Add(time.Hour), late) {
		t.Fatal("a new key into a full window must report the eviction")
	}
	if _, ok := w.Get("b", late); ok {
		t.Fatal("b expires first and should have been the one evicted")
	}
}

// TestWindowDelete: an entry can be dropped from anywhere in the heap —
// the root, the last slot, the middle, the only one — and the heap, the
// index and the capacity accounting stay sound; a deleted key stored
// again is a fresh insert.
func TestWindowDelete(t *testing.T) {
	at := func(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }
	// Inserted in expiry order, so key i sits at heap position i.
	fill := func(n int) Window[int, int] {
		w := NewWindow[int, int](8)
		for i := 0; i < n; i++ {
			w.Put(i, i, at(10+i), t0)
		}
		return w
	}
	for _, tc := range []struct {
		name string
		n    int
		del  []int
		want []bool
	}{
		{"root", 5, []int{0}, []bool{true}},
		{"last", 5, []int{4}, []bool{true}},
		{"middle", 7, []int{1, 2}, []bool{true, true}},
		{"only entry", 1, []int{0}, []bool{true}},
		{"absent", 3, []int{9}, []bool{false}},
		{"twice", 3, []int{1, 1}, []bool{true, false}},
		{"all, root first", 4, []int{0, 1, 2, 3}, []bool{true, true, true, true}},
		{"empty window", 0, []int{0}, []bool{false}},
	} {
		w := fill(tc.n)
		left := tc.n
		for i, k := range tc.del {
			if got := w.Delete(k); got != tc.want[i] {
				t.Fatalf("%s: Delete(%d) = %v, want %v", tc.name, k, got, tc.want[i])
			}
			if tc.want[i] {
				left--
			}
			if _, ok := w.Get(k, t0); ok {
				t.Fatalf("%s: Get(%d) hits after Delete", tc.name, k)
			}
			if w.Len() != left {
				t.Fatalf("%s: Len = %d after deleting %v, want %d", tc.name, w.Len(), tc.del[:i+1], left)
			}
			checkHeap(t, &w)
		}
		for k := 0; k < tc.n; k++ {
			deleted := false
			for _, d := range tc.del {
				deleted = deleted || d == k
			}
			if v, ok := w.Get(k, t0); ok == deleted || (ok && v != k) {
				t.Fatalf("%s: Get(%d) = %d, %v", tc.name, k, v, ok)
			}
		}
	}

	// Delete then Put of the same key: a fresh insert under the new
	// expiry, and the freed slot counts toward the capacity again.
	w := NewWindow[int, int](2)
	w.Put(1, 1, at(10), t0)
	w.Put(2, 2, at(20), t0)
	if !w.Delete(1) {
		t.Fatal("Delete(1) found nothing")
	}
	if w.Put(1, 3, at(30), t0) {
		t.Fatal("storing a deleted key again evicted a live entry: its slot was not freed")
	}
	if v, ok := w.Get(1, at(25)); !ok || v != 3 {
		t.Fatalf("Get(1) = %d, %v, want 3 under the new expiry", v, ok)
	}
	checkHeap(t, &w)
	if !w.Put(3, 4, at(40), t0) {
		t.Fatal("a third key into a full window of two must evict")
	}
	if _, ok := w.Get(2, t0); ok {
		t.Fatal("key 2 expires first and should have been the one evicted")
	}
}
