package admission

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// testClock is a manually advanced time source.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock { return &testClock{now: time.Unix(1_700_000_000, 0)} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestBurstThenRefusal(t *testing.T) {
	clk := newTestClock()
	l := New(Config{Rate: 10, Burst: 4, Clock: clk.Now})
	for i := 0; i < 4; i++ {
		if d := l.Allow("alice"); !d.Allowed {
			t.Fatalf("op %d refused inside burst", i)
		}
	}
	if d := l.Allow("alice"); d.Allowed {
		t.Fatal("op admitted past exhausted bucket with no time elapsed")
	}
	m := l.Metrics()
	if m.Allowed != 4 || m.Limited != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestRefill(t *testing.T) {
	clk := newTestClock()
	l := New(Config{Rate: 10, Burst: 4, Clock: clk.Now})
	for i := 0; i < 4; i++ {
		l.Allow("alice")
	}
	if l.Allow("alice").Allowed {
		t.Fatal("bucket not empty")
	}
	clk.Advance(100 * time.Millisecond) // one token at 10/s
	if !l.Allow("alice").Allowed {
		t.Fatal("token not refilled after 100ms at rate 10/s")
	}
	if l.Allow("alice").Allowed {
		t.Fatal("refill over-credited")
	}
	// Refill never exceeds the burst depth.
	clk.Advance(time.Hour)
	for i := 0; i < 4; i++ {
		if !l.Allow("alice").Allowed {
			t.Fatalf("op %d refused after full refill", i)
		}
	}
	if l.Allow("alice").Allowed {
		t.Fatal("idle refill exceeded burst")
	}
}

func TestIsolationBetweenCredentials(t *testing.T) {
	clk := newTestClock()
	l := New(Config{Rate: 5, Burst: 2, Clock: clk.Now})
	for i := 0; i < 50; i++ {
		l.Allow("flooder")
	}
	if !l.Allow("bob").Allowed {
		t.Fatal("a flooding credential starved an unrelated one")
	}
}

func TestOffenseEscalation(t *testing.T) {
	clk := newTestClock()
	l := New(Config{Rate: 1, Burst: 1, Clock: clk.Now})
	l.Allow("mallory") // drains the bucket
	alerts := 0
	for i := 0; i < 3*offenseThreshold; i++ {
		if d := l.Allow("mallory"); d.Alert {
			alerts++
			if d.Offenses%offenseThreshold != 0 {
				t.Errorf("alert at offense count %d, want multiples of %d", d.Offenses, offenseThreshold)
			}
		}
	}
	if alerts != 3 {
		t.Fatalf("%d refusals at threshold %d raised %d alerts, want 3", 3*offenseThreshold, offenseThreshold, alerts)
	}
	if m := l.Metrics(); m.Alerts != 3 {
		t.Fatalf("metrics.Alerts = %d, want 3", m.Alerts)
	}
}

func TestSuccessResetsOffenseStreak(t *testing.T) {
	clk := newTestClock()
	l := New(Config{Rate: 10, Burst: 1, Clock: clk.Now})
	l.Allow("alice")
	for i := 0; i < offenseThreshold-1; i++ {
		l.Allow("alice") // offenses, one below the threshold
	}
	clk.Advance(time.Second) // refill; success resets the streak
	if !l.Allow("alice").Allowed {
		t.Fatal("refilled op refused")
	}
	for i := 0; i < offenseThreshold-1; i++ {
		if d := l.Allow("alice"); d.Alert {
			t.Fatal("streak not reset by a successful op")
		}
	}
}

func TestExternalOffenseFeedsSameEscalation(t *testing.T) {
	clk := newTestClock()
	l := New(Config{Rate: 100, Burst: 100, Clock: clk.Now})
	// Quota refusals escalate even though the rate bucket is full.
	var alerted bool
	for i := 0; i < offenseThreshold; i++ {
		if d := l.Offense("chatty"); d.Alert {
			alerted = true
		}
	}
	if !alerted {
		t.Fatalf("%d external offenses raised no alert", offenseThreshold)
	}
	// And tokens were not consumed.
	if !l.Allow("chatty").Allowed {
		t.Fatal("Offense consumed tokens")
	}
}

func TestTrackedBound(t *testing.T) {
	clk := newTestClock()
	l := New(Config{Rate: 1000, Burst: 4, Clock: clk.Now})
	for i := 0; i < maxTracked+1000; i++ {
		l.Allow(fmt.Sprintf("peer-%d", i))
		clk.Advance(10 * time.Millisecond) // older buckets refill to idle
	}
	if m := l.Metrics(); m.Tracked > maxTracked {
		t.Fatalf("tracked %d buckets, cap %d", m.Tracked, maxTracked)
	}
}

func TestConcurrentAllow(t *testing.T) {
	l := New(Config{Rate: 1e9, Burst: 1e9})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			key := fmt.Sprintf("p%d", n%4)
			for j := 0; j < 1000; j++ {
				l.Allow(key)
			}
		}(i)
	}
	wg.Wait()
	if m := l.Metrics(); m.Allowed != 8000 {
		t.Fatalf("allowed = %d, want 8000", m.Allowed)
	}
}
