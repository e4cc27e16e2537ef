package relay_test

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/relay"
	"jxtaoverlay/internal/seglog"
	"jxtaoverlay/internal/waituntil"
)

// TestRecoveryMatchesModel drives a durable relay through random
// interleavings of submit / deliver / time-passing, optionally fails
// the log's file system at an operation drawn from the seed and cuts
// the power (seglog.CrashFS), restarts, and checks the recovered
// queues against an in-memory model of the same history filtered by
// TTL and the delivery acks. The invariants under test:
//
//   - no loss: every fsync-acknowledged, undelivered, unexpired
//     submission is in a queue after recovery;
//   - no resurrection: items delivered or expired while the log was
//     healthy never come back;
//   - no pre-crash double delivery: an item delivered AND acked before
//     the crash is never delivered again (items delivered after the
//     log died may redeliver — that is the documented at-least-once
//     residue the recipient's replay guard absorbs).
func TestRecoveryMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runRecoveryModel(t, rand.New(rand.NewSource(seed)))
		})
	}
}

type modelItem struct {
	payload string
	expires time.Time
}

// expireModel drops every model item dead at now; safe to call early
// (an item expired at T is still expired at any later T').
func expireModel(queues map[keys.PeerID][]modelItem, now time.Time) {
	for id, q := range queues {
		kept := q[:0]
		for _, it := range q {
			if !now.After(it.expires) {
				kept = append(kept, it)
			}
		}
		if len(kept) == 0 {
			delete(queues, id)
		} else {
			queues[id] = kept
		}
	}
}

func runRecoveryModel(t *testing.T, rng *rand.Rand) {
	dir := t.TempDir()
	var clock atomic.Int64
	now := func() time.Time { return time.Unix(1_000_000+clock.Load(), 0) }
	peers := []keys.PeerID{"alice", "bob", "carol", "dave"}

	// Sync-per-append (SyncInterval 0): every submission accepted while
	// the log is healthy is fsync-acknowledged, so the model may count
	// it durable. When armed, the file system fails at crashOp of the
	// next append — 1 its write, 2 its fsync — killing the log, and the
	// relay runs memory-only from then on.
	var armed atomic.Bool
	crashOp := 1 + rng.Intn(2)
	fs := seglog.NewCrashFS(rng.Int63())
	cfg := relay.Config{Clock: now, QueueCap: 1 << 16}
	cfg.WAL.Dir = dir
	cfg.WAL.FS = fs

	s := newSink()
	r, err := relay.New(cfg, s.isOnline, s.deliver)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[keys.PeerID][]modelItem)

	submit := func(i int) {
		to := peers[rng.Intn(len(peers))]
		payload := fmt.Sprintf("op%d", i)
		it := relay.Item{To: to, From: "sender", Group: "g", Payload: []byte(payload)}
		if r.Submit(it) != relay.SubmitQueued {
			t.Fatalf("op %d: submit not queued", i)
		}
		if !armed.Load() {
			model[to] = append(model[to], modelItem{payload, now().Add(relayTTL)})
		}
	}
	deliverAll := func(id keys.PeerID) {
		s.setOnline(id, true)
		r.Flush(id)
		waitQuiet(t, r, id)
		s.setOnline(id, false)
		if !armed.Load() {
			// Healthy log: the delivery acks landed, nothing comes back.
			delete(model, id)
		}
		// Dead log: acks were lost, so the model KEEPS these items —
		// they resurrect at recovery and redeliver (at-least-once).
	}

	ops := 60 + rng.Intn(60)
	for i := 0; i < ops; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			submit(i)
		case 6, 7:
			deliverAll(peers[rng.Intn(len(peers))])
		case 8, 9:
			clock.Add(int64(10 + rng.Intn(40)))
		}
	}

	// Half the histories end in a crash: snapshot what was delivered
	// under a healthy log (those may never redeliver), arm the fault,
	// and run a short memory-only tail the recovery must NOT reflect —
	// except for delivered-but-unacked items, which must resurrect.
	ackedDelivery := make(map[keys.PeerID]map[string]bool)
	for _, id := range peers {
		ackedDelivery[id] = make(map[string]bool)
		for _, p := range s.got(id) {
			ackedDelivery[id][p] = true
		}
	}
	var trigger modelItem
	var triggerTo keys.PeerID
	if rng.Intn(2) == 0 {
		armed.Store(true)
		fs.FailAt(fs.Ops() + crashOp)
		// The submission that trips the failure: its record is in the
		// file unless its write failed, and on the disk after the power
		// cut only if the cut kept it whole (below).
		triggerTo, trigger = peers[rng.Intn(len(peers))], modelItem{"crash-trigger", now().Add(relayTTL)}
		it := relay.Item{To: triggerTo, From: "sender", Group: "g", Payload: []byte("crash-trigger")}
		if r.Submit(it) != relay.SubmitQueued {
			t.Fatal("crash-trigger submit not queued")
		}
		if r.Metrics().WALErrors == 0 {
			t.Fatal("fault did not fire")
		}
		for i := 0; i < 10+rng.Intn(10); i++ {
			switch rng.Intn(3) {
			case 0:
				submit(1000 + i) // memory-only: lost at restart
			case 1:
				deliverAll(peers[rng.Intn(len(peers))]) // unacked: resurrects
			case 2:
				clock.Add(int64(rng.Intn(30)))
			}
		}
	}
	r.Close()
	if armed.Load() {
		kept, lost, err := fs.Crash()
		if err != nil {
			t.Fatal(err)
		}
		if crashOp == 2 && kept > 0 && lost == 0 {
			model[triggerTo] = append(model[triggerTo], trigger)
		}
	}
	expireModel(model, now()) // recovery re-enforces TTL at this instant

	s2 := newSink()
	cfg2 := relay.Config{Clock: now, QueueCap: 1 << 16}
	cfg2.WAL.Dir = dir
	r2, err := relay.New(cfg2, s2.isOnline, s2.deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()

	for _, id := range peers {
		want := payloadsOf(model[id])
		if got := r2.QueueLen(id); got != len(want) {
			t.Fatalf("peer %s: recovered %d items, model has %d %v", id, got, len(want), want)
		}
		s2.setOnline(id, true)
		r2.Flush(id)
		waitQuiet(t, r2, id)
		got := s2.got(id)
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("peer %s: recovered %v, model %v", id, got, want)
		}
		for _, p := range got {
			if ackedDelivery[id][p] {
				t.Fatalf("peer %s: %s delivered under a healthy log AND after recovery", id, p)
			}
		}
	}
}

func payloadsOf(items []modelItem) []string {
	out := make([]string, 0, len(items))
	for _, it := range items {
		out = append(out, it.payload)
	}
	sort.Strings(out)
	return out
}

// waitQuiet blocks until the peer's queue drains (online delivery
// cannot fail in these tests, so a drain always empties it).
func waitQuiet(t *testing.T, r *relay.Relay, id keys.PeerID) {
	t.Helper()
	waituntil.Must(t, 5*time.Second, func() bool {
		if r.QueueLen(id) == 0 {
			return true
		}
		r.Flush(id)
		return false
	}, "queue for %s never drained", id)
}
