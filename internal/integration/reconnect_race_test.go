// Reconnect racing the relay drain: a peer that resumes its session
// WHILE the relay is pushing its queued backlog must neither lose a
// slice (the drain aborts, the items stay queued and follow the new
// session) nor surface one twice (redeliveries collapse in the replay
// guard below the application). Run with -race: the interesting bugs
// here are ordering windows between the login presence path, the shard
// drain worker, and the client's pipe re-binding.
package integration_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
	"jxtaoverlay/internal/waituntil"
)

func TestReconnectDuringRelayDrain(t *testing.T) {
	const rounds = 12
	net := simnet.NewNetwork(simnet.LinkProfile{})
	defer net.Close()

	dep := newDeployment(t)
	db := userdb.NewStoreIter(4)
	db.Register("alice", "pw", "g")
	db.Register("bob", "pw", "g")
	br := startBroker(t, dep, net, "race-broker", db, core.BrokerConfig{RequireSignedAdvs: true}).Broker
	rly, err := core.EnableBrokerRelay(br, core.RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rly.Close()

	alice := join(t, newClient(t, dep, net, "alice"), br)
	bob := join(t, newClient(t, dep, net, "bob", core.WithReplayGuard(core.NewReplayGuard(time.Minute, 256))), br)
	bobEvents := events.NewCollector(bob.Bus())

	// Bob leaves; alice queues a backlog of distinct rounds for him.
	if err := bob.Logout(ctxT(t, 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		direct, queued, err := alice.SecureMsgPeerGroupRelay(ctxT(t, 30*time.Second), "g", fmt.Sprintf("backlog-%d", i))
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if direct != 0 || queued != 1 {
			t.Fatalf("round %d: direct=%d queued=%d", i, direct, queued)
		}
	}
	if got := rly.QueuedTotal(); got != rounds {
		t.Fatalf("relay holds %d slices, want %d", got, rounds)
	}

	// Bob returns — and reconnects AGAIN while the first login's drain
	// is still pushing. The second login races the shard worker: its
	// fresh session must keep (or re-trigger) the drain, and the replay
	// guard must absorb any redelivered overlap.
	relogin := func() { join(t, bob, br) }
	relogin()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		relogin() // races the in-flight drain of the first re-login
	}()
	wg.Wait()

	// Every queued round must surface exactly once, none dropped.
	waituntil.True(15*time.Second, func() bool {
		return len(bobEvents.OfType(events.SecureMessage)) >= rounds && rly.QueuedTotal() == 0
	})
	got := bobEvents.OfType(events.SecureMessage)
	seen := map[string]int{}
	for _, e := range got {
		seen[string(e.Data)]++
	}
	for i := 0; i < rounds; i++ {
		key := fmt.Sprintf("backlog-%d", i)
		switch seen[key] {
		case 0:
			t.Errorf("%s dropped during reconnect-vs-drain race (relay %+v)", key, rly.Metrics())
		case 1:
		default:
			t.Errorf("%s delivered %d times", key, seen[key])
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	if got := rly.QueuedTotal(); got != 0 {
		t.Fatalf("relay still holds %d slices", got)
	}
}
