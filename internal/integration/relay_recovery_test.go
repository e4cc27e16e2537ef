// Crash recovery end-to-end: the broker relay runs on its durable WAL,
// whose file system (seglog.CrashFS) fails at a boundary of an append
// with slices still queued; the power is cut where the boundary says,
// and the relay is brought back on what the disk kept. The recovered
// queues must deliver every fsync-acknowledged slice exactly once
// through the real secure pipeline — no loss, no resurrection of
// delivered traffic, no duplicate surfacing past the recipients' replay
// guards.
package integration_test

import (
	"testing"
	"time"

	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/seglog"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
	"jxtaoverlay/internal/waituntil"
)

// TestRelayCrashRecoveryExactlyOnce fails the relay's log at each
// boundary of an append mid-queue and restarts it. Round 1's slice is
// accepted while the log is healthy, so it is fsync-acknowledged and
// MUST survive. Round 2's slice is being appended at the failure: its
// write fails (before-append); it is written and the power goes before
// its fsync (after-append); its fsync fails with the machine up
// (before-sync); or its fsync returns and the power goes at the next
// operation (after-sync). It survives where its bytes reached the disk
// whole — the table the wal package pins in isolation, here verified
// through the full broker + secure-client stack. The subtest's index is
// the seed of what the power cut keeps.
func TestRelayCrashRecoveryExactlyOnce(t *testing.T) {
	for i, p := range []struct {
		name  string
		fail  int  // the operation of round 2's append that fails: 1 its write, 2 its fsync, 3 the next
		crash bool // the power goes at the failure
	}{{"before-append", 1, true}, {"after-append", 2, true}, {"before-sync", 2, false}, {"after-sync", 3, true}} {
		t.Run(p.name, func(t *testing.T) {
			runCrashRecovery(t, int64(i), p.fail, p.crash)
		})
	}
}

func runCrashRecovery(t *testing.T, seed int64, fail int, crash bool) {
	net := simnet.NewNetwork(simnet.LinkProfile{})
	defer net.Close()

	dep := newDeployment(t)
	db := userdb.NewStoreIter(8)
	names := []string{"alice", "bob", "carol"}
	for _, n := range names {
		db.Register(n, "pw", "g")
	}
	br := startBroker(t, dep, net, "crash-broker", db, core.BrokerConfig{RequireSignedAdvs: true}).Broker

	// Sync-per-append relay on a durable log, with an armable failure.
	walDir := t.TempDir()
	fs := seglog.NewCrashFS(seed)
	cfg := core.RelayConfig{}
	cfg.WAL.Dir = walDir
	cfg.WAL.FS = fs
	rly, err := core.EnableBrokerRelay(br, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { rly.Close() }()

	clients := make([]*core.SecureClient, len(names))
	for i, name := range names {
		clients[i] = join(t, newClient(t, dep, net, name), br)
	}
	alice, bob, carol := clients[0], clients[1], clients[2]
	bobEvents := events.NewCollector(bob.Bus())
	carolEvents := events.NewCollector(carol.Bus())

	// Carol leaves; her slices queue (and persist).
	if err := carol.Logout(ctxT(t, 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	sendRound := func(text string) {
		direct, queued, err := alice.SecureMsgPeerGroupRelay(ctxT(t, 30*time.Second), "g", text)
		if err != nil {
			t.Fatalf("round %q: %v", text, err)
		}
		if direct != 1 || queued != 1 {
			t.Fatalf("round %q: direct=%d queued=%d, want 1/1", text, direct, queued)
		}
	}
	sendRound("round-1") // healthy log: fsync-acked
	fs.FailAt(fs.Ops() + fail)
	sendRound("round-2") // the log dies appending carol's slice
	rounds := 2
	if fail == 3 {
		sendRound("round-3") // round 2's slice is durable; this one's write fails
		rounds = 3
	}
	if rly.Metrics().WALErrors == 0 {
		t.Fatal("fault never fired — round 2 did not exercise the crash point")
	}

	// The crash: the relay goes down with carol's queue non-empty, and a
	// fresh relay recovers from what the disk kept.
	rly.Close()
	wantRecovered := uint64(2)
	if fail == 1 {
		wantRecovered = 1 // round 2's bytes never reached the file
	}
	if crash {
		kept, lost, err := fs.Crash()
		if err != nil {
			t.Fatal(err)
		}
		if fail == 2 && (kept == 0 || lost > 0) {
			wantRecovered = 1 // the power cut round 2's unsynced write short
		}
	}
	cfg.WAL.FS = nil
	rly, err = core.EnableBrokerRelay(br, cfg)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if m := rly.Metrics(); m.RecoveryReplayed != wantRecovered || m.RecoveryDiscardedGuard != 0 {
		t.Fatalf("recovery metrics %+v, want %d replayed / 0 guard-discarded", m, wantRecovered)
	}

	// Carol returns; her recovered queue drains through the real login
	// presence pipeline.
	join(t, carol, br)
	waituntil.True(10*time.Second, func() bool {
		return uint64(len(carolEvents.OfType(events.SecureMessage))) >= wantRecovered
	})
	got := carolEvents.OfType(events.SecureMessage)
	if uint64(len(got)) != wantRecovered {
		t.Fatalf("carol received %d messages after recovery, want %d", len(got), wantRecovered)
	}
	seen := map[string]bool{}
	for _, e := range got {
		if e.Attr("authenticated") != "true" {
			t.Fatalf("recovered slice not authenticated: %v", e.Attrs())
		}
		if seen[string(e.Data)] {
			t.Fatalf("duplicate delivery of %q", e.Data)
		}
		seen[string(e.Data)] = true
	}
	if !seen["round-1"] {
		t.Fatal("fsync-acknowledged round-1 slice lost")
	}
	if wantRecovered == 2 && !seen["round-2"] {
		t.Fatal("round-2 slice lost despite surviving bytes")
	}

	// Exactly-once, the other half: bob's slices were delivered directly
	// and never entered the log — the restart must not replay anything
	// at him, and nothing must surface twice at carol.
	time.Sleep(150 * time.Millisecond)
	if n := len(bobEvents.OfType(events.SecureMessage)); n != rounds {
		t.Fatalf("bob saw %d messages, want exactly %d (no post-recovery replays)", n, rounds)
	}
	if n := len(carolEvents.OfType(events.SecureMessage)); uint64(n) != wantRecovered {
		t.Fatalf("carol saw %d messages after settling, want %d", n, wantRecovered)
	}
	if n := len(carolEvents.OfType(events.SecurityAlert)); n != 0 {
		t.Fatalf("recovery raised %d security alerts at carol", n)
	}
}
