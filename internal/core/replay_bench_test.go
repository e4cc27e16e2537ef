package core

import (
	"testing"
	"time"
)

// BenchmarkReplayGuardAdmit prices one ReplayGuard.Check at the guard's
// two operating points. "full" is the state a recipient is in under any
// sustained load — the default 4096 entries, all live, every admit
// evicting the one closest to expiry — and is held to an absolute
// ceiling and exactly zero allocations in bench_compare.sh: it is paid
// once per unicast open and twice per round open, beside an RSA unwrap
// it must stay invisible next to. "empty" is the other end: every
// earlier entry has expired by the time of the next admit, so the table
// never holds more than one.
func BenchmarkReplayGuardAdmit(b *testing.B) {
	b.Run("empty", func(b *testing.B) {
		g := NewReplayGuard(0, 0)
		now := time.Now()
		g.SetClock(func() time.Time { return now })
		next := distinctWires()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now = now.Add(5 * time.Minute)
			if err := g.Check(next(), now); err != nil {
				b.Fatal(err)
			}
		}
		if g.Len() != 1 {
			b.Fatalf("Len = %d, want 1", g.Len())
		}
	})
	b.Run("full", func(b *testing.B) {
		g := NewReplayGuard(0, 0)
		now := time.Now()
		g.SetClock(func() time.Time { return now })
		next := distinctWires()
		fillGuard(g, now, next)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := g.Check(next(), now); err != nil {
				b.Fatal(err)
			}
		}
	})
}
