package broker

import (
	"fmt"
	"testing"

	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
)

// BenchmarkIdemOverhead prices the idempotency dedup window at its
// operating points. "hit" is the retry fast path — a resubmitted
// mutation answered from the table instead of re-executed — held to an
// absolute nanosecond ceiling and exactly zero allocations in
// bench_compare.sh (the key is a struct of two strings so this lookup
// never builds a scoped key string). "store" caches one acknowledged
// response into a table well under its cap, where every store after the
// first lap replaces a live entry; "store-full" is the table at its cap
// of live entries, where every store is a new key and evicts the one
// closest to expiry. Both are held to the same wall-clock ceiling.
func BenchmarkIdemOverhead(b *testing.B) {
	peer := keys.PeerID("urn:jxta:bench-peer")
	resp := endpoint.NewMessage()
	b.Run("hit", func(b *testing.B) {
		c := newIdemCache()
		c.store(peer, "ik-bench", resp)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := c.lookup(peer, "ik-bench"); !ok {
				b.Fatal("cached response missing")
			}
		}
	})
	b.Run("store", func(b *testing.B) {
		c := newIdemCache()
		ks := make([]string, 1024)
		for i := range ks {
			ks[i] = fmt.Sprintf("ik-bench-%04d", i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.store(peer, ks[i%len(ks)], resp)
		}
	})
	b.Run("store-full", func(b *testing.B) {
		c := newIdemCache()
		// Twice the cap: by the time a key comes round again it has
		// long been evicted, so no store finds its key present.
		ks := make([]string, 2*idemMaxEntries)
		for i := range ks {
			ks[i] = fmt.Sprintf("ik-bench-%04d", i)
			c.store(peer, ks[i], resp)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.store(peer, ks[i%len(ks)], resp)
		}
		if n := c.seen.Len(); n != idemMaxEntries {
			b.Fatalf("%d entries, want the cap %d", n, idemMaxEntries)
		}
	})
}
