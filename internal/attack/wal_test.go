// Durable-queue negatives: with store-and-forward queues persisted to
// disk, the disk itself joins the adversary model. An attacker (or a
// failing device) that can rewrite the broker's WAL gets three moves:
// flip bits under an intact length frame, tear the tail mid-record,
// and roll the log back to un-ack a delivered slice so it resurrects
// at recovery. The first two must be fail-stop — a damaged record is
// dropped, never delivered damaged, and never takes recovery down with
// it. The third is the one move the log cannot stop alone: the
// resurrected slice redelivers, and only the recipient's single-use
// round nonce (core.ReplayGuard) turns the duplicate away.
package attack_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/relay"
	"jxtaoverlay/internal/relay/wal"
)

// durableRelay builds a WAL-backed relay delivering into a channel.
func durableRelay(t *testing.T, dir string, online *atomic.Bool) (*relay.Relay, chan relay.Item) {
	t.Helper()
	drained := make(chan relay.Item, 16)
	cfg := relay.Config{}
	cfg.WAL.Dir = dir
	r, err := relay.New(cfg, func(keys.PeerID) bool { return online.Load() },
		func(it relay.Item) error {
			drained <- it
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return r, drained
}

func drainOne(t *testing.T, r *relay.Relay, id keys.PeerID, ch chan relay.Item) relay.Item {
	t.Helper()
	r.Flush(id)
	select {
	case it := <-ch:
		return it
	case <-time.After(5 * time.Second):
		t.Fatal("queued slice never drained")
		return relay.Item{}
	}
}

// TestWALBitFlipDropsRecordFailStop: a bit flipped inside a stored
// record (intact framing, broken CRC) must cost exactly that record —
// recovery neither crashes nor delivers the damaged slice, and the
// records before it survive untouched, byte-for-byte openable.
func TestWALBitFlipDropsRecordFailStop(t *testing.T) {
	alice, bob, carol := newRoundParty(t), newRoundParty(t), newRoundParty(t)
	d, err := core.SealGroupDetached(alice.kp, alice.id, "math", []byte("disk secret"),
		[]*keys.PublicKey{bob.kp.Public(), carol.kp.Public()})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var online atomic.Bool
	r, _ := durableRelay(t, dir, &online)
	if r.Submit(relay.Item{To: bob.id, From: alice.id, Group: "math", Payload: d.Slices()[0]}) != relay.SubmitQueued {
		t.Fatal("submit not queued")
	}
	if r.Submit(relay.Item{To: carol.id, From: alice.id, Group: "math", Payload: d.Slices()[1]}) != relay.SubmitQueued {
		t.Fatal("submit not queued")
	}
	r.Close()
	// The adversary flips one bit in the LAST record (carol's slice).
	if err := wal.FlipTailCRC(dir); err != nil {
		t.Fatal(err)
	}

	r2, drained := durableRelay(t, dir, &online)
	defer r2.Close()
	if m := r2.Metrics(); m.RecoveryReplayed != 1 {
		t.Fatalf("recovered %d records past the flipped one, want 1 (metrics %+v)", m.RecoveryReplayed, m)
	}
	if r2.QueueLen(carol.id) != 0 {
		t.Fatal("corrupted record was resurrected")
	}
	online.Store(true)
	it := drainOne(t, r2, bob.id, drained)
	if _, err := core.OpenSlice(bob.kp, it.Payload, nil); err != nil {
		t.Fatalf("intact neighbor of flipped record no longer opens: %v", err)
	}
}

// TestWALTornTailTruncatedFailStop: a record torn in half (crash
// mid-write, or an adversary truncating the file) reads as a torn
// tail: recovery truncates it away and the log keeps working — the
// survivors deliver and open, and nothing half-written ever surfaces.
func TestWALTornTailTruncatedFailStop(t *testing.T) {
	alice, bob := newRoundParty(t), newRoundParty(t)
	d, err := core.SealGroupDetached(alice.kp, alice.id, "math", []byte("torn secret"),
		[]*keys.PublicKey{bob.kp.Public(), bob.kp.Public()})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var online atomic.Bool
	r, _ := durableRelay(t, dir, &online)
	r.Submit(relay.Item{To: bob.id, From: alice.id, Group: "math", Payload: d.Slices()[0]})
	r.Submit(relay.Item{To: bob.id, From: alice.id, Group: "math", Payload: d.Slices()[1]})
	r.Close()
	if err := wal.TearFinalRecord(dir); err != nil {
		t.Fatal(err)
	}

	r2, drained := durableRelay(t, dir, &online)
	defer r2.Close()
	if m := r2.Metrics(); m.RecoveryReplayed != 1 {
		t.Fatalf("recovered %d records, want 1 before the tear", m.RecoveryReplayed)
	}
	online.Store(true)
	it := drainOne(t, r2, bob.id, drained)
	if _, err := core.OpenSlice(bob.kp, it.Payload, nil); err != nil {
		t.Fatalf("survivor of torn tail no longer opens: %v", err)
	}
}

// TestWALRollbackResurrectionStoppedByReplayGuard: the move the log
// cannot defend alone. The adversary lets a queued slice drain to bob,
// then destroys the delivery ack (tearing the log tail back past it)
// so the restarted relay resurrects and redelivers the slice. The
// redelivery is byte-identical and validly signed — only bob's spent
// round nonce stands between it and a duplicate message. This is the
// end-to-end shape of the recovery invariant: WAL acks make honest
// restarts exactly-once; the replay guard covers dishonest ones.
func TestWALRollbackResurrectionStoppedByReplayGuard(t *testing.T) {
	alice, bob := newRoundParty(t), newRoundParty(t)
	d, err := core.SealGroupDetached(alice.kp, alice.id, "math", []byte("resurrect me"),
		[]*keys.PublicKey{bob.kp.Public()})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	guard := core.NewReplayGuard(time.Minute, 64)
	var online atomic.Bool
	r, drained := durableRelay(t, dir, &online)
	if r.Submit(relay.Item{To: bob.id, From: alice.id, Group: "math", Payload: d.Slices()[0]}) != relay.SubmitQueued {
		t.Fatal("submit not queued")
	}
	online.Store(true)
	it := drainOne(t, r, bob.id, drained)
	if _, err := core.OpenSlice(bob.kp, it.Payload, guard); err != nil {
		t.Fatalf("first delivery rejected: %v", err)
	}
	r.Close()

	// Roll back the log: the final record is the AckDelivered — tearing
	// it leaves the slice's add record live again.
	if err := wal.TearFinalRecord(dir); err != nil {
		t.Fatal(err)
	}
	r2, drained2 := durableRelay(t, dir, &online)
	defer r2.Close()
	if m := r2.Metrics(); m.RecoveryReplayed != 1 {
		t.Fatalf("rollback did not resurrect the slice (metrics %+v)", m)
	}
	redelivered := drainOne(t, r2, bob.id, drained2)
	if _, err := core.OpenSlice(bob.kp, redelivered.Payload, guard); !errors.Is(err, core.ErrMessageReplayed) {
		t.Fatalf("resurrected slice = %v, want ErrMessageReplayed", err)
	}
}
