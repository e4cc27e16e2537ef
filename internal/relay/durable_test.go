package relay_test

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/relay"
	"jxtaoverlay/internal/seglog"
	"jxtaoverlay/internal/waituntil"
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
	r := mustDurable(t, dir, relay.Config{}, s)
	for i := 0; i < 3; i++ {
		if r.Submit(item("bob", fmt.Sprintf("m%d", i))) != relay.SubmitQueued {
			t.Fatal("offline submit not queued")
		}
	}
	r.Close() // graceful shutdown must NOT ack queued items

	s2 := newSink()
	r2 := mustDurable(t, dir, relay.Config{}, s2)
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
	r := mustDurable(t, dir, relay.Config{}, s)
	r.Submit(item("bob", "delivered"))
	r.Submit(item("bob", "pending"))
	s.setOnline("bob", true)
	r.Flush("bob")
	waitFor(t, func() bool { return len(s.got("bob")) == 2 })
	r.Submit(item("carol", "still-queued"))
	r.Close()

	s2 := newSink()
	r2 := mustDurable(t, dir, relay.Config{}, s2)
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
	r := mustDurable(t, dir, relay.Config{Clock: now}, s)
	r.Submit(item("bob", "stale"))
	clock.Store(100)
	r.Submit(item("bob", "fresh"))
	r.Close()

	clock.Store(int64(relayTTL/time.Second) + 50) // the first item's TTL ran out while the relay was down
	s2 := newSink()
	r2 := mustDurable(t, dir, relay.Config{Clock: now}, s2)
	r2.Close()
	if m := r2.Metrics(); m.RecoveryReplayed != 1 || m.RecoveryDiscardedTTL != 1 {
		t.Fatalf("recovery metrics = %+v, want 1 replayed / 1 TTL-discarded", m)
	}

	// The TTL discard was itself logged: a third recovery sees it as a
	// plain ack, not a live item to re-expire.
	s3 := newSink()
	r3 := mustDurable(t, dir, relay.Config{Clock: now}, s3)
	defer r3.Close()
	if m := r3.Metrics(); m.RecoveryDiscardedTTL != 0 || m.RecoveryReplayed != 1 {
		t.Fatalf("second recovery metrics = %+v", m)
	}
}

// TestWALFaultDegradesToMemory: a dying log (the disk fails the next
// append's write) must not take the relay down with it — queueing
// continues in memory, the failure is counted, and durability is all
// that is lost.
func TestWALFaultDegradesToMemory(t *testing.T) {
	dir := t.TempDir()
	fs := seglog.NewCrashFS(1)
	s := newSink()
	cfg := relay.Config{}
	cfg.WAL.Dir = dir
	cfg.WAL.FS = fs
	r, err := relay.New(cfg, s.isOnline, s.deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Submit(item("bob", "durable"))
	fs.FailAt(fs.Ops() + 1)
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

// TestRetireHoldsNoShardAcrossFsync: at SyncInterval 0 an enqueue that
// finds an expired item in its peer's queue appends the item's ack, and
// waits for its fsync, only once it has released the shard's lock. While
// that fsync is held (in OnSync), a drain of another peer on the same
// shard hands its item to the sink.
func TestRetireHoldsNoShardAcrossFsync(t *testing.T) {
	var clock atomic.Int64
	now := func() time.Time { return time.Unix(1000+clock.Load(), 0) }
	var fsyncs, holdAt atomic.Int32
	held, release := make(chan struct{}), make(chan struct{})
	cfg := relay.Config{Clock: now}
	cfg.WAL.OnSync = func(time.Time, time.Duration) {
		if fsyncs.Add(1) == holdAt.Load() {
			close(held)
			<-release
		}
	}
	s := newSink()
	r := mustDurable(t, t.TempDir(), cfg, s)
	defer r.Close()
	other := keys.PeerID("")
	for i := 0; other == ""; i++ {
		if id := keys.PeerID(fmt.Sprintf("peer-%d", i)); r.SameShard("bob", id) {
			other = id
		}
	}
	r.Submit(item("bob", "expires"))
	clock.Store(100)
	r.Submit(item(other, "waiting"))
	clock.Store(int64(relayTTL/time.Second) + 10) // bob's item has expired, the other's not

	holdAt.Store(fsyncs.Load() + 2) // the next submit's add, then the expired item's ack
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		r.Submit(item("bob", "late"))
	}()
	<-held
	s.setOnline(other, true)
	go r.Flush(other)
	drained := waituntil.True(2*time.Second, func() bool { return len(s.got(other)) == 1 })
	close(release)
	<-submitted
	if !drained {
		t.Fatal("a drain of another peer on the shard waited for the fsync of an expired item's ack")
	}
}

// TestSenderQuotaRefusesAndReleases: the third queued item from one
// sender is refused with the quota-specific result, and delivering the
// backlog returns the occupancy.
func TestSenderQuotaRefusesAndReleases(t *testing.T) {
	s := newSink()
	r := mustRelay(t, relay.Config{SenderQuota: 2}, s)
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
	r := mustRelay(t, relay.Config{GroupQuota: 1}, s)
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
	r := mustDurable(t, dir, relay.Config{SenderQuota: 2}, s)
	r.Submit(item("bob", "m0"))
	r.Submit(item("carol", "m1"))
	r.Close()

	s2 := newSink()
	r2 := mustDurable(t, dir, relay.Config{SenderQuota: 2}, s2)
	defer r2.Close()
	if !r2.SenderOverQuota("sender") {
		t.Fatal("recovered relay forgot quota occupancy")
	}
	if got := r2.Submit(item("dave", "m2")); got != relay.SubmitDroppedQuota {
		t.Fatalf("post-recovery over-quota submit = %v", got)
	}
}

// TestCloseCancelsArmedRetry: a retry a failed drain put on its shard's
// schedule must die with the relay. Close once left a 250ms
// time.AfterFunc running that fired Flush against a closed relay —
// benign-looking, but a real shutdown race under -race and a leaked
// timer per failed peer; the worker that owns the schedule now empties
// it as it returns. Run with -race.
func TestCloseCancelsArmedRetry(t *testing.T) {
	s := newSink()
	r := mustRelay(t, relay.Config{}, s)
	s.mu.Lock()
	s.online["bob"] = true
	s.fail = true
	s.mu.Unlock()
	r.Submit(item("bob", "m0"))
	waitFor(t, func() bool { return r.ScheduledRetries() == 1 })
	r.Close()
	if n := r.ScheduledRetries(); n != 0 {
		t.Fatalf("%d retries still scheduled after Close", n)
	}
	// A retry that had already fired before Close must also be inert.
	time.Sleep(2 * retryDelayForTest())
	if n := r.ScheduledRetries(); n != 0 {
		t.Fatalf("retry scheduled again after Close: %d", n)
	}
}

func retryDelayForTest() time.Duration { return relay.RetryBackoff.Ceiling(1) }

// TestForwardedRecordReplaysOnce: a log written by brokers that federated
// may hold an add whose flags byte marks a slice a partner handed off. It
// replays as any other add: one delivery at the recipient's login, acked,
// so a second restart finds nothing to deliver.
func TestForwardedRecordReplaysOnce(t *testing.T) {
	dir := t.TempDir()
	// An add record as those brokers' encoder wrote it (wal's
	// TestDecodeReadsPastForwardedFlag decodes the same bytes): Seq 1, to
	// bob from "sender" in group "g", payload "handed off", expiring in
	// 2100, flags byte 1.
	rec, err := hex.DecodeString("31000000586b5fcf010101000000000000000000a656cfcfee38010300626f62060073656e6465720100670a00000068616e646564206f6666")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), rec, 0o600); err != nil {
		t.Fatal(err)
	}
	s := newSink()
	r := mustDurable(t, dir, relay.Config{}, s)
	if m := r.Metrics(); m.RecoveryReplayed != 1 || r.QueueLen("bob") != 1 {
		t.Fatalf("recovery metrics = %+v, bob's queue %d: want the record replayed into it", m, r.QueueLen("bob"))
	}
	s.setOnline("bob", true)
	r.Flush("bob")
	waitFor(t, func() bool { return len(s.got("bob")) == 1 })
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if got := s.got("bob"); len(got) != 1 || got[0] != "handed off" {
		t.Fatalf("delivered %q, want the one payload once", got)
	}

	s2 := newSink()
	s2.setOnline("bob", true)
	r2 := mustDurable(t, dir, relay.Config{}, s2)
	defer r2.Close()
	if m := r2.Metrics(); m.RecoveryReplayed != 0 || r2.QueueLen("bob") != 0 {
		t.Fatalf("after the delivery, recovery metrics = %+v, bob's queue %d: want nothing replayed", m, r2.QueueLen("bob"))
	}
}

// TestDrainSyncsOncePerBatch: at SyncInterval 0 a drain of 40 queued
// items, one batch, acks them all in one WAL append, under one fsync
// (40 while each delivered item was acked alone), and a reopened relay
// recovers none of them.
func TestDrainSyncsOncePerBatch(t *testing.T) {
	dir := t.TempDir()
	var syncs atomic.Int64
	cfg := relay.Config{QueueCap: 64}
	cfg.WAL.OnSync = func(time.Time, time.Duration) { syncs.Add(1) }
	s := newSink()
	r := mustDurable(t, dir, cfg, s)
	const n = 40
	for i := 0; i < n; i++ {
		r.Submit(item("bob", fmt.Sprintf("m%d", i)))
	}
	before := syncs.Load()
	s.setOnline("bob", true)
	r.Flush("bob")
	waituntil.Must(t, 5*time.Second, func() bool { return r.Metrics().DeliveredFlushed == n }, "the drain did not finish")
	if got := syncs.Load() - before; got != 1 {
		t.Fatalf("draining %d items took %d fsyncs, want 1", n, got)
	}
	r.Close()
	r = mustDurable(t, dir, relay.Config{}, newSink())
	defer r.Close()
	if got := r.Metrics().RecoveryReplayed; got != 0 {
		t.Fatalf("%d delivered items recovered", got)
	}
}
