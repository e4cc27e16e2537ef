package broker

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/perfgate"
	"jxtaoverlay/internal/proto"
)

func TestIdemEntryExpiresAfterWindow(t *testing.T) {
	base := time.Now()
	c := newIdemCache()
	resp := endpoint.NewMessage()
	c.store("alice", "k", resp, base)

	if got, ok := c.lookup("alice", "k", base.Add(idemWindow)); !ok || got != resp {
		t.Fatalf("lookup at the window's edge = %p, %v; want the cached response", got, ok)
	}
	past := base.Add(idemWindow + time.Nanosecond)
	if _, ok := c.lookup("alice", "k", past); ok {
		t.Fatal("hit past the window: an expired response must not be replayed")
	}
	// The dead entry is dropped by the next store, not kept against the cap.
	c.store("alice", "k2", resp, past)
	if n := c.seen.Len(); n != 1 {
		t.Fatalf("%d entries after a store past the first one's window, want 1", n)
	}
}

func TestIdemOverflowEvictsSoonestToExpire(t *testing.T) {
	base := time.Now()
	c := newIdemCache()
	resp := endpoint.NewMessage()
	for i := 0; i < idemMaxEntries; i++ {
		c.store("alice", fmt.Sprintf("k%04d", i), resp, base.Add(time.Duration(i)*time.Millisecond))
	}
	if c.evictedLive != 0 {
		t.Fatalf("evictedLive = %d while filling, want 0", c.evictedLive)
	}
	now := base.Add(time.Minute)
	c.store("alice", "one-more", resp, now)
	if n := c.seen.Len(); n != idemMaxEntries {
		t.Fatalf("%d entries, want the cap %d", n, idemMaxEntries)
	}
	if c.evictedLive != 1 {
		t.Fatalf("evictedLive = %d after one store into a full table, want 1", c.evictedLive)
	}
	if _, ok := c.lookup("alice", "k0000", now); ok {
		t.Fatal("the oldest entry has the least window left and should have been evicted")
	}
	for _, k := range []string{"k0001", fmt.Sprintf("k%04d", idemMaxEntries-1), "one-more"} {
		if _, ok := c.lookup("alice", k, now); !ok {
			t.Fatalf("%s evicted; only the soonest-to-expire entry may go", k)
		}
	}
}

func TestIdemSameKeyTwoPeersIsTwoEntries(t *testing.T) {
	c, now := newIdemCache(), time.Now()
	ra, rb := endpoint.NewMessage(), endpoint.NewMessage()
	c.store("alice", "ik-1", ra, now)
	c.store("bob", "ik-1", rb, now)
	if n := c.seen.Len(); n != 2 {
		t.Fatalf("%d entries, want 2", n)
	}
	if got, _ := c.lookup("alice", "ik-1", now); got != ra {
		t.Fatal("alice's key answered with another peer's response")
	}
	if got, _ := c.lookup("bob", "ik-1", now); got != rb {
		t.Fatal("bob's key answered with another peer's response")
	}
	// Neither split of the same concatenation may meet the other.
	c.store("al", "iceik-1", rb, now)
	if got, _ := c.lookup("alice", "ik-1", now); got != ra {
		t.Fatal("(al, iceik-1) collided with (alice, ik-1)")
	}
}

func TestIdemRestoreRefreshesExpiry(t *testing.T) {
	base := time.Now()
	c := newIdemCache()
	first, second := endpoint.NewMessage(), endpoint.NewMessage()
	c.store("alice", "k", first, base)
	c.store("alice", "k", second, base.Add(idemWindow/2))
	if n := c.seen.Len(); n != 1 {
		t.Fatalf("%d entries after storing one key twice, want 1", n)
	}
	if got, ok := c.lookup("alice", "k", base.Add(idemWindow+time.Second)); !ok || got != second {
		t.Fatal("the second store must replace the response and restart its window")
	}
	if _, ok := c.lookup("alice", "k", base.Add(idemWindow/2+idemWindow+time.Second)); ok {
		t.Fatal("hit past the refreshed window")
	}
}

// TestDispatchHonoursOnlyLoggedInBoundedKeys: a key is looked up and
// stored only for a logged-in peer and only up to idemMaxKeyLen bytes;
// any other keyed request is dispatched as if it carried no key — it
// executes every time and leaves nothing behind.
func TestDispatchHonoursOnlyLoggedInBoundedKeys(t *testing.T) {
	for _, tc := range []struct {
		name     string
		loggedIn bool
		key      string
		honoured bool
	}{
		{"logged-in, client-minted key", true, "ik-1z141z3", true},
		{"logged-in, key at the bound", true, strings.Repeat("k", idemMaxKeyLen), true},
		{"logged-in, oversized key", true, strings.Repeat("k", idemMaxKeyLen+1), false},
		{"stranger, client-minted key", false, "ik-1z141z3", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, net := newBroker(t)
			c := newCaller(t, net, b, "urn:jxta:peer")
			if tc.loggedIn {
				c.login("alice")
			}
			for i := 0; i < 2; i++ {
				if ok, tok := proto.IsOK(c.op(proto.OpConnect, proto.ElemIdem, tc.key)); !ok {
					t.Fatalf("keyed connect %d refused: %s", i, tok)
				}
			}
			entries, deduped := 0, uint64(0)
			if tc.honoured {
				entries, deduped = 1, 1
			}
			if got := b.IdemEntries(); got != entries {
				t.Errorf("IdemEntries = %d, want %d", got, entries)
			}
			if got := b.Stats().IdemDeduped; got != deduped {
				t.Errorf("IdemDeduped = %d, want %d", got, deduped)
			}
		})
	}
}

// The dedup window at its operating points. A hit is the retry fast
// path, a resubmitted mutation answered from the table: the key is a
// struct of two strings so that the lookup builds nothing. A store
// caches one acknowledged response; inserting may grow the map, so it
// is held on time only, by the same ceiling under the cap (every store
// replaces a live entry) and at it (every store is a new key and evicts
// the entry closest to expiry).

const idemBenchPeer = keys.PeerID("urn:jxta:bench-peer")

func BenchmarkIdemHit(b *testing.B) {
	c := newIdemCache()
	c.store(idemBenchPeer, "ik-bench", endpoint.NewMessage(), time.Now())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.lookup(idemBenchPeer, "ik-bench", time.Now()); !ok {
			b.Fatal("cached response missing")
		}
	}
}

// benchIdemStore stores nKeys distinct keys round-robin into a table
// that has seen them all once.
func benchIdemStore(b *testing.B, nKeys int) *idemCache {
	c := newIdemCache()
	resp := endpoint.NewMessage()
	ks := make([]string, nKeys)
	for i := range ks {
		ks[i] = fmt.Sprintf("ik-bench-%04d", i)
		c.store(idemBenchPeer, ks[i], resp, time.Now())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.store(idemBenchPeer, ks[i%len(ks)], resp, time.Now())
	}
	return c
}

func BenchmarkIdemStore(b *testing.B) { benchIdemStore(b, 1024) }

// Twice the cap: by the time a key comes round again it has long been
// evicted, so no store finds its key present.
func BenchmarkIdemStoreFull(b *testing.B) {
	c := benchIdemStore(b, 2*idemMaxEntries)
	if n := c.seen.Len(); n != idemMaxEntries {
		b.Fatalf("%d entries, want the cap %d", n, idemMaxEntries)
	}
}

func TestGateIdemHit(t *testing.T)   { perfgate.Run(t, BenchmarkIdemHit, 0, 1000) }
func TestGateIdemStore(t *testing.T) { perfgate.Run(t, BenchmarkIdemStore, perfgate.NoLimit, 3000) }
func TestGateIdemStoreFull(t *testing.T) {
	perfgate.Run(t, BenchmarkIdemStoreFull, perfgate.NoLimit, 3000)
}
