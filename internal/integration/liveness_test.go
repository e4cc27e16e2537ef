// Liveness end-to-end: a peer that silently dies mid-round (no logout,
// no FIN — it just stops heartbeating) must not black-hole delivery.
// Its lease lapses, the broker expires its presence, and the relay
// flips from live push to queueing; when the peer re-logins, the
// queued slices drain to it through the normal flush pipeline.
package integration_test

import (
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
	"jxtaoverlay/internal/waituntil"
)

func TestExpiredLeasePeerIsQueuedForNotBlackHoled(t *testing.T) {
	const leaseTTL = 30 * time.Second
	net := simnet.NewNetwork(simnet.LinkProfile{})
	defer net.Close()

	dep := newDeployment(t)
	db := userdb.NewStoreIter(4)
	db.Register("alice", "pw", "g")
	db.Register("bob", "pw", "g")
	site := startBroker(t, dep, net, "lease-broker", db, core.BrokerConfig{RequireSignedAdvs: true, LeaseTTL: leaseTTL})
	br, brSec := site.Broker, site.Security
	var mu sync.Mutex
	now := time.Now()
	br.Endpoint().SetClock(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	})
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	rly, err := core.EnableBrokerRelay(br, core.RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rly.Close()

	alice, bob := join(t, newClient(t, dep, net, "alice"), br), join(t, newClient(t, dep, net, "bob"), br)
	bobEvents := events.NewCollector(bob.Bus())

	// Bob silently dies: no logout, no disconnect — his heartbeats just
	// stop. Alice keeps heartbeating; one TTL later the sweeper expires
	// bob's presence and only his.
	advance(leaseTTL - time.Second)
	if err := alice.SecureHeartbeat(ctxT(t, 10*time.Second)); err != nil {
		t.Fatalf("alice heartbeat: %v", err)
	}
	advance(2 * time.Second)
	brSec.ExpireLapsedNow()
	if br.PeerOnline(bob.PeerID()) {
		t.Fatal("bob still online past his lease with no heartbeat")
	}
	if !br.PeerOnline(alice.PeerID()) {
		t.Fatal("alice expired despite heartbeating")
	}

	// Alice's round now queues bob's slice instead of pushing into the
	// dead session (or skipping him entirely — the black-hole this test
	// convicts).
	direct, queued, err := alice.SecureMsgPeerGroupRelay(ctxT(t, 30*time.Second), "g", "while you were out")
	if err != nil {
		t.Fatal(err)
	}
	if direct != 0 || queued != 1 {
		t.Fatalf("direct=%d queued=%d, want 0 direct / 1 queued for the expired peer", direct, queued)
	}
	if rly.QueuedTotal() != 1 {
		t.Fatalf("relay holds %d slices, want 1", rly.QueuedTotal())
	}

	// Bob comes back with a full re-login (his sid and lease are gone).
	// The login presence event drains his queue: the message that was
	// sent while he was dead arrives now.
	join(t, bob, br)
	e, ok := bobEvents.WaitFor(events.SecureMessage, 10*time.Second)
	if !ok {
		t.Fatalf("queued slice never delivered after re-login (relay %+v)", rly.Metrics())
	}
	if string(e.Data) != "while you were out" || e.Attr("authenticated") != "true" {
		t.Fatalf("bob got %q (auth=%s)", e.Data, e.Attr("authenticated"))
	}
	waituntil.True(5*time.Second, func() bool { return rly.QueuedTotal() == 0 })
	if got := rly.QueuedTotal(); got != 0 {
		t.Fatalf("relay still holds %d slices after re-login", got)
	}
	// Exactly once: the drain must not double-deliver.
	time.Sleep(100 * time.Millisecond)
	if n := len(bobEvents.OfType(events.SecureMessage)); n != 1 {
		t.Fatalf("bob saw %d copies, want 1", n)
	}
	if st := brSec.LivenessStats(); st.LeasesExpired != 1 || st.LeasesGranted != 3 {
		t.Fatalf("liveness stats %+v, want 1 expired / 3 granted", st)
	}
}
