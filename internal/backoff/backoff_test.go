package backoff

import (
	"math/rand"
	"testing"
	"time"
)

func TestCeilingDoublesAndCaps(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Cap: 1 * time.Second}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1 * time.Second, 1 * time.Second,
	}
	for n, w := range want {
		if got := p.Ceiling(n); got != w {
			t.Fatalf("Ceiling(%d) = %v, want %v", n, got, w)
		}
	}
	// Overflow safety: an absurd attempt number still returns the cap.
	if got := p.Ceiling(1 << 30); got != p.Cap {
		t.Fatalf("Ceiling(huge) = %v, want cap %v", got, p.Cap)
	}
}

func TestZeroPolicyFallsBackToDefault(t *testing.T) {
	var p Policy
	if got := p.Ceiling(0); got != DefaultPolicy.Base {
		t.Fatalf("zero policy Ceiling(0) = %v, want %v", got, DefaultPolicy.Base)
	}
	if p.Delay(0, nil) <= 0 {
		t.Fatal("zero policy Delay must stay positive")
	}
}

func TestDelayWithinBoundsAndFloored(t *testing.T) {
	p := Policy{Base: 80 * time.Millisecond, Cap: 2 * time.Second}
	rnd := rand.New(rand.NewSource(7))
	for n := 0; n < 12; n++ {
		c := p.Ceiling(n)
		for i := 0; i < 200; i++ {
			d := p.Delay(n, rnd.Float64)
			if d > c {
				t.Fatalf("attempt %d: delay %v above ceiling %v", n, d, c)
			}
			if d < c/16 {
				t.Fatalf("attempt %d: delay %v below floor %v", n, d, c/16)
			}
		}
	}
	// A zero draw is clamped to the floor, never zero.
	if d := p.Delay(0, func() float64 { return 0 }); d != p.Base/16 {
		t.Fatalf("zero draw = %v, want floor %v", d, p.Base/16)
	}
}

func TestSourceDeterministicAndResettable(t *testing.T) {
	p := Policy{Base: 50 * time.Millisecond, Cap: 1 * time.Second}
	a, b := NewSource(p, 42), NewSource(p, 42)
	for i := 0; i < 8; i++ {
		if da, db := a.Next(), b.Next(); da != db {
			t.Fatalf("draw %d diverged: %v vs %v", i, da, db)
		}
	}
	// A new source restarts the schedule from the first ceiling: each
	// resume loop draws from a source of its own.
	if d := NewSource(p, 42).Next(); d > p.Base {
		t.Fatalf("first delay of a new source %v above first ceiling %v", d, p.Base)
	}
}

func TestMaxDelaysWithinConvictsStorms(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Cap: 1 * time.Second}
	// Floors: 6.25ms, 12.5ms, 25ms, 50ms, 62.5ms, 62.5ms... The bound
	// must be monotone in the interval and hit at least 1 immediately.
	if got := p.MaxDelaysWithin(0); got != 1 {
		t.Fatalf("MaxDelaysWithin(0) = %d, want 1", got)
	}
	small := p.MaxDelaysWithin(100 * time.Millisecond)
	big := p.MaxDelaysWithin(10 * time.Second)
	if small >= big {
		t.Fatalf("bound not monotone: %d >= %d", small, big)
	}
	// 10s of minimum-draw delays at a 62.5ms steady floor: bound stays
	// in a sane band (coarse — the point is it is finite and usable as
	// a gate).
	if big < 100 || big > 400 {
		t.Fatalf("MaxDelaysWithin(10s) = %d, outside sanity band", big)
	}
}
