package relay_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"jxtaoverlay/internal/relay"
	"jxtaoverlay/internal/relay/wal"
)

func mustDurable(t *testing.T, dir string, cfg relay.Config, s *sink) *relay.Relay {
	t.Helper()
	cfg.WAL.Dir = dir
	r, err := relay.New(cfg, s.isOnline, s.deliver)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDurableQueueSurvivesRestart: items queued for an offline peer
// survive a relay restart and deliver at the peer's next login — the
// crash-recovery contract in its simplest shape.
func TestDurableQueueSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := newSink()
	r := mustDurable(t, dir, relay.Config{TTL: time.Hour}, s)
	for i := 0; i < 3; i++ {
		if r.Submit(item("bob", fmt.Sprintf("m%d", i))) != relay.SubmitQueued {
			t.Fatal("offline submit not queued")
		}
	}
	r.Close() // graceful shutdown must NOT ack queued items

	s2 := newSink()
	r2 := mustDurable(t, dir, relay.Config{TTL: time.Hour}, s2)
	defer r2.Close()
	if m := r2.Metrics(); m.RecoveryReplayed != 3 {
		t.Fatalf("recovery metrics = %+v, want 3 replayed", m)
	}
	if r2.QueueLen("bob") != 3 {
		t.Fatalf("queue len after restart = %d", r2.QueueLen("bob"))
	}
	s2.setOnline("bob", true)
	r2.Flush("bob")
	waitFor(t, func() bool { return len(s2.got("bob")) == 3 })
	if got := s2.got("bob"); got[0] != "m0" || got[1] != "m1" || got[2] != "m2" {
		t.Fatalf("recovered order = %v", got)
	}
}

// TestDeliveredItemsDoNotResurrect: an item delivered before the
// restart is acked in the log and must not come back — the recipient
// already has it, and the broker must not rely on the replay guard
// alone to suppress a whole queue's worth of duplicates.
func TestDeliveredItemsDoNotResurrect(t *testing.T) {
	dir := t.TempDir()
	s := newSink()
	r := mustDurable(t, dir, relay.Config{TTL: time.Hour}, s)
	r.Submit(item("bob", "delivered"))
	r.Submit(item("bob", "pending"))
	s.setOnline("bob", true)
	r.Flush("bob")
	waitFor(t, func() bool { return len(s.got("bob")) == 2 })
	r.Submit(item("carol", "still-queued"))
	r.Close()

	s2 := newSink()
	r2 := mustDurable(t, dir, relay.Config{TTL: time.Hour}, s2)
	defer r2.Close()
	m := r2.Metrics()
	if m.RecoveryReplayed != 1 || m.RecoveryDiscardedGuard != 2 {
		t.Fatalf("recovery metrics = %+v, want 1 replayed / 2 guarded", m)
	}
	if r2.QueueLen("bob") != 0 {
		t.Fatalf("delivered items resurrected: bob queue = %d", r2.QueueLen("bob"))
	}
	if r2.QueueLen("carol") != 1 {
		t.Fatalf("carol queue = %d, want 1", r2.QueueLen("carol"))
	}
}

// TestExpiredWhileDownDoesNotResurrect: TTL is re-enforced at recovery
// — an item whose deadline passed while the broker was dead is
// discarded (and acked, so the NEXT recovery need not re-judge it).
func TestExpiredWhileDownDoesNotResurrect(t *testing.T) {
	dir := t.TempDir()
	var clock atomic.Int64
	now := func() time.Time { return time.Unix(1000+clock.Load(), 0) }
	s := newSink()
	r := mustDurable(t, dir, relay.Config{TTL: 30 * time.Second, Clock: now}, s)
	r.Submit(item("bob", "stale"))
	it := item("bob", "fresh")
	it.Expires = now().Add(time.Hour)
	r.Submit(it)
	r.Close()

	clock.Store(60) // the default-TTL item died while the relay was down
	s2 := newSink()
	r2 := mustDurable(t, dir, relay.Config{TTL: 30 * time.Second, Clock: now}, s2)
	r2.Close()
	if m := r2.Metrics(); m.RecoveryReplayed != 1 || m.RecoveryDiscardedTTL != 1 {
		t.Fatalf("recovery metrics = %+v, want 1 replayed / 1 TTL-discarded", m)
	}

	// The TTL discard was itself logged: a third recovery sees it as a
	// plain ack, not a live item to re-expire.
	s3 := newSink()
	r3 := mustDurable(t, dir, relay.Config{TTL: 30 * time.Second, Clock: now}, s3)
	defer r3.Close()
	if m := r3.Metrics(); m.RecoveryDiscardedTTL != 0 || m.RecoveryReplayed != 1 {
		t.Fatalf("second recovery metrics = %+v", m)
	}
}

// TestWALFaultDegradesToMemory: a dying log (injected crash) must not
// take the relay down with it — queueing continues in memory, the
// failure is counted, and durability is all that is lost.
func TestWALFaultDegradesToMemory(t *testing.T) {
	dir := t.TempDir()
	var armed atomic.Bool
	s := newSink()
	cfg := relay.Config{TTL: time.Hour}
	cfg.WAL.Dir = dir
	cfg.WAL.Faults = func(fp wal.FaultPoint) error {
		if armed.Load() && fp == wal.BeforeAppend {
			return wal.ErrInjected
		}
		return nil
	}
	r, err := relay.New(cfg, s.isOnline, s.deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Submit(item("bob", "durable"))
	armed.Store(true)
	if got := r.Submit(item("bob", "memory-only")); got != relay.SubmitQueued {
		t.Fatalf("submit during WAL fault = %v, want SubmitQueued", got)
	}
	if m := r.Metrics(); m.WALErrors == 0 {
		t.Fatal("WAL failure not counted")
	}
	s.setOnline("bob", true)
	r.Flush("bob")
	waitFor(t, func() bool { return len(s.got("bob")) == 2 })
}

// TestSenderQuotaRefusesAndReleases: the third queued item from one
// sender is refused with the quota-specific result, and delivering the
// backlog returns the occupancy.
func TestSenderQuotaRefusesAndReleases(t *testing.T) {
	s := newSink()
	r := mustRelay(t, relay.Config{SenderQuota: 2, TTL: time.Hour}, s)
	defer r.Close()
	r.Submit(item("bob", "m0"))
	r.Submit(item("carol", "m1")) // quota spans recipients
	if got := r.Submit(item("dave", "m2")); got != relay.SubmitDroppedQuota {
		t.Fatalf("over-quota submit = %v, want SubmitDroppedQuota", got)
	}
	if !r.SenderOverQuota("sender") {
		t.Fatal("SenderOverQuota = false at cap")
	}
	if m := r.Metrics(); m.DroppedQuota != 1 {
		t.Fatalf("DroppedQuota = %d", m.DroppedQuota)
	}
	s.setOnline("bob", true)
	r.Flush("bob")
	waitFor(t, func() bool { return len(s.got("bob")) == 1 })
	waitFor(t, func() bool { return !r.SenderOverQuota("sender") })
	if got := r.Submit(item("dave", "m3")); got != relay.SubmitQueued {
		t.Fatalf("post-release submit = %v, want SubmitQueued", got)
	}
}

// TestGroupQuotaIsolatesGroups: one noisy group hitting its cap must
// not block traffic from another group, even from the same sender.
func TestGroupQuotaIsolatesGroups(t *testing.T) {
	s := newSink()
	r := mustRelay(t, relay.Config{GroupQuota: 1, TTL: time.Hour}, s)
	defer r.Close()
	r.Submit(item("bob", "g-first"))
	if got := r.Submit(item("carol", "g-second")); got != relay.SubmitDroppedQuota {
		t.Fatalf("over-quota group submit = %v", got)
	}
	other := item("carol", "h-first")
	other.Group = "h"
	if got := r.Submit(other); got != relay.SubmitQueued {
		t.Fatalf("other-group submit = %v, want SubmitQueued", got)
	}
}

// TestQuotaSurvivesRecovery: quota occupancy is rebuilt from the
// recovered queues, so a restart cannot be used to dodge the cap.
func TestQuotaSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	s := newSink()
	r := mustDurable(t, dir, relay.Config{SenderQuota: 2, TTL: time.Hour}, s)
	r.Submit(item("bob", "m0"))
	r.Submit(item("carol", "m1"))
	r.Close()

	s2 := newSink()
	r2 := mustDurable(t, dir, relay.Config{SenderQuota: 2, TTL: time.Hour}, s2)
	defer r2.Close()
	if !r2.SenderOverQuota("sender") {
		t.Fatal("recovered relay forgot quota occupancy")
	}
	if got := r2.Submit(item("dave", "m2")); got != relay.SubmitDroppedQuota {
		t.Fatalf("post-recovery over-quota submit = %v", got)
	}
}

// TestCloseCancelsArmedRetry: a retry timer armed by a failed drain
// must die with the relay. Before the fix, Close left the 250ms
// time.AfterFunc running and it fired Flush against a closed relay —
// benign-looking, but a real shutdown race under -race and a leaked
// timer per failed peer. Run with -race.
func TestCloseCancelsArmedRetry(t *testing.T) {
	s := newSink()
	r := mustRelay(t, relay.Config{}, s)
	s.mu.Lock()
	s.online["bob"] = true
	s.fail = true
	s.mu.Unlock()
	r.Submit(item("bob", "m0"))
	waitFor(t, func() bool { return r.ArmedRetries() == 1 })
	r.Close()
	if n := r.ArmedRetries(); n != 0 {
		t.Fatalf("%d retry timers still armed after Close", n)
	}
	// A retry that had already fired before Close must also be inert.
	time.Sleep(2 * retryDelayForTest())
	if n := r.ArmedRetries(); n != 0 {
		t.Fatalf("retry re-armed after Close: %d", n)
	}
}

func retryDelayForTest() time.Duration { return relay.RetryBackoff.Ceiling(1) }
