package broker

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/endpoint"
)

// idemAt returns a cache on a clock the test moves by assigning *now.
func idemAt(start time.Time) (c *idemCache, now *time.Time) {
	c, now = newIdemCache(), &start
	c.clock = func() time.Time { return *now }
	return c, now
}

func TestIdemEntryExpiresAfterWindow(t *testing.T) {
	base := time.Now()
	c, now := idemAt(base)
	resp := endpoint.NewMessage()
	c.store("alice", "k", resp)

	*now = base.Add(idemWindow)
	if got, ok := c.lookup("alice", "k"); !ok || got != resp {
		t.Fatalf("lookup at the window's edge = %p, %v; want the cached response", got, ok)
	}
	*now = base.Add(idemWindow + time.Nanosecond)
	if _, ok := c.lookup("alice", "k"); ok {
		t.Fatal("hit past the window: an expired response must not be replayed")
	}
	// The dead entry is dropped by the next store, not kept against the cap.
	c.store("alice", "k2", resp)
	if n := c.seen.Len(); n != 1 {
		t.Fatalf("%d entries after a store past the first one's window, want 1", n)
	}
}

func TestIdemOverflowEvictsSoonestToExpire(t *testing.T) {
	base := time.Now()
	c, now := idemAt(base)
	resp := endpoint.NewMessage()
	for i := 0; i < idemMaxEntries; i++ {
		*now = base.Add(time.Duration(i) * time.Millisecond)
		c.store("alice", fmt.Sprintf("k%04d", i), resp)
	}
	if c.evictedLive != 0 {
		t.Fatalf("evictedLive = %d while filling, want 0", c.evictedLive)
	}
	*now = base.Add(time.Minute)
	c.store("alice", "one-more", resp)
	if n := c.seen.Len(); n != idemMaxEntries {
		t.Fatalf("%d entries, want the cap %d", n, idemMaxEntries)
	}
	if c.evictedLive != 1 {
		t.Fatalf("evictedLive = %d after one store into a full table, want 1", c.evictedLive)
	}
	if _, ok := c.lookup("alice", "k0000"); ok {
		t.Fatal("the oldest entry has the least window left and should have been evicted")
	}
	for _, k := range []string{"k0001", fmt.Sprintf("k%04d", idemMaxEntries-1), "one-more"} {
		if _, ok := c.lookup("alice", k); !ok {
			t.Fatalf("%s evicted; only the soonest-to-expire entry may go", k)
		}
	}
}

func TestIdemSameKeyTwoPeersIsTwoEntries(t *testing.T) {
	c, _ := idemAt(time.Now())
	ra, rb := endpoint.NewMessage(), endpoint.NewMessage()
	c.store("alice", "ik-1", ra)
	c.store("bob", "ik-1", rb)
	if n := c.seen.Len(); n != 2 {
		t.Fatalf("%d entries, want 2", n)
	}
	if got, _ := c.lookup("alice", "ik-1"); got != ra {
		t.Fatal("alice's key answered with another peer's response")
	}
	if got, _ := c.lookup("bob", "ik-1"); got != rb {
		t.Fatal("bob's key answered with another peer's response")
	}
	// Neither split of the same concatenation may meet the other.
	c.store("al", "iceik-1", rb)
	if got, _ := c.lookup("alice", "ik-1"); got != ra {
		t.Fatal("(al, iceik-1) collided with (alice, ik-1)")
	}
}

func TestIdemRestoreRefreshesExpiry(t *testing.T) {
	base := time.Now()
	c, now := idemAt(base)
	first, second := endpoint.NewMessage(), endpoint.NewMessage()
	c.store("alice", "k", first)
	*now = base.Add(idemWindow / 2)
	c.store("alice", "k", second)
	if n := c.seen.Len(); n != 1 {
		t.Fatalf("%d entries after storing one key twice, want 1", n)
	}
	*now = base.Add(idemWindow + time.Second)
	if got, ok := c.lookup("alice", "k"); !ok || got != second {
		t.Fatal("the second store must replace the response and restart its window")
	}
	*now = base.Add(idemWindow/2 + idemWindow + time.Second)
	if _, ok := c.lookup("alice", "k"); ok {
		t.Fatal("hit past the refreshed window")
	}
}

// TestIdemStoreRacesSetIdemClock: store used to read the clock before
// taking the cache's lock, while SetIdemClock writes it under that lock.
// Run under -race.
func TestIdemStoreRacesSetIdemClock(t *testing.T) {
	b, _ := newBroker(t)
	resp := endpoint.NewMessage()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			b.idem.store("alice", fmt.Sprintf("k%d", i%64), resp)
			b.idem.lookup("alice", "k0")
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			at := time.Now().Add(time.Duration(i) * time.Second)
			b.SetIdemClock(func() time.Time { return at })
		}
	}()
	wg.Wait()
	if n := b.IdemEntries(); n < 1 || n > 64 {
		t.Fatalf("IdemEntries = %d, want 1..64", n)
	}
}
