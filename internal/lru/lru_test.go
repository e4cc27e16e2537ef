package lru

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

var (
	t0 = time.Unix(1000, 0)
	t1 = time.Unix(2000, 0)
	t2 = time.Unix(3000, 0)
)

func TestGetPut(t *testing.T) {
	c := New[string, int](4)
	if _, ok := c.Get("a", t0); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1, time.Time{})
	if v, ok := c.Get("a", t0); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Put("a", 2, time.Time{})
	if v, _ := c.Get("a", t0); v != 2 {
		t.Fatalf("Get(a) after replace = %d", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestEvictionOrder(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1, time.Time{})
	c.Put("b", 2, time.Time{})
	c.Get("a", t0) // "a" becomes most recently used
	c.Put("c", 3, time.Time{})
	if _, ok := c.Get("b", t0); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	if _, ok := c.Get("a", t0); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := c.Get("c", t0); !ok {
		t.Fatal("new entry missing")
	}
}

func TestExpiry(t *testing.T) {
	c := New[string, int](4)
	c.Put("a", 1, t1)
	if _, ok := c.Get("a", t0); !ok {
		t.Fatal("entry expired before its time")
	}
	if _, ok := c.Get("a", t1); ok {
		t.Fatal("entry live at its expiry instant")
	}
	if c.Len() != 0 {
		t.Fatal("expired entry not collected on Get")
	}
	// Expiry is judged by the caller's clock: an entry can be dead for
	// one caller and live for another with an earlier "now".
	c.Put("b", 2, t2)
	if _, ok := c.Get("b", t1); !ok {
		t.Fatal("entry dead before expiry")
	}
}

func TestMinimumCapacity(t *testing.T) {
	c := New[string, int](0)
	c.Put("a", 1, time.Time{})
	c.Put("b", 2, time.Time{})
	if c.Len() != 1 {
		t.Fatalf("capacity floor violated: Len = %d", c.Len())
	}
}

// TestConcurrent hammers the cache from many goroutines; run with -race.
func TestConcurrent(t *testing.T) {
	c := New[string, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%100)
				if i%3 == 0 {
					c.Put(key, i, t2)
				} else {
					c.Get(key, t0)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("cache overflowed its capacity: %d", c.Len())
	}
}
