// Federation hand-off end-to-end: a slice queued at one broker for an
// offline member must chase the member when it logs into a federation
// partner instead — delivered there, through the partner's relay and
// the full secure pipeline, rather than expiring in the origin's queue
// (or being refused as relay:skipped, the pre-hand-off behavior).
package integration_test

import (
	"testing"
	"time"

	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/relay"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
	"jxtaoverlay/internal/waituntil"
)

func TestQueuedSliceFollowsPeerToPartnerBroker(t *testing.T) {
	net := simnet.NewNetwork(simnet.LinkProfile{})
	defer net.Close()

	dep := newDeployment(t)
	db := userdb.NewStoreIter(8)
	db.Register("alice", "pw", "g")
	db.Register("bob", "pw", "g")

	mkBroker := func(name string) *broker.Broker {
		return startBroker(t, dep, net, name, db, core.BrokerConfig{RequireSignedAdvs: true}).Broker
	}
	brA, brB := mkBroker("origin-broker"), mkBroker("partner-broker")
	brA.Federate(brB.PeerID())
	brB.Federate(brA.PeerID())
	mkRelay := func(b *broker.Broker) *relay.Relay {
		r, err := core.EnableBrokerRelay(b, core.RelayConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		return r
	}
	rlyA, rlyB := mkRelay(brA), mkRelay(brB)

	alice, bob := newClient(t, dep, net, "alice"), newClient(t, dep, net, "bob")
	join(t, alice, brA)
	join(t, bob, brA)
	bobEvents := events.NewCollector(bob.Bus())

	// Bob leaves broker A; alice's round queues his slice there.
	if err := bob.Logout(ctxT(t, 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	direct, queued, err := alice.SecureMsgPeerGroupRelay(ctxT(t, 30*time.Second), "g", "follow me")
	if err != nil {
		t.Fatal(err)
	}
	if direct != 0 || queued != 1 {
		t.Fatalf("direct=%d queued=%d, want 0/1", direct, queued)
	}
	if rlyA.QueuedTotal() != 1 {
		t.Fatalf("origin relay holds %d slices, want 1", rlyA.QueuedTotal())
	}

	// Bob resurfaces at broker B. The fedPeerUp reaching A re-registers
	// him as partner-resident and fires the presence event that drains
	// his queue — into a federation hand-off, not a local push.
	join(t, bob, brB)
	e, ok := bobEvents.WaitFor(events.SecureMessage, 10*time.Second)
	if !ok {
		t.Fatalf("queued slice never followed bob to the partner broker (origin relay %+v, partner relay %+v, partner sees bob online=%v)",
			rlyA.Metrics(), rlyB.Metrics(), brB.PeerOnline(bob.PeerID()))
	}
	if string(e.Data) != "follow me" || e.Attr("authenticated") != "true" {
		t.Fatalf("bob got %q (auth=%s)", e.Data, e.Attr("authenticated"))
	}

	waituntil.True(5*time.Second, func() bool { return rlyA.QueuedTotal() == 0 })
	if got := rlyA.QueuedTotal(); got != 0 {
		t.Fatalf("origin relay still holds %d slices", got)
	}
	if got := rlyA.Metrics().HandedOff; got != 1 {
		t.Fatalf("origin HandedOff = %d, want 1", got)
	}
	if got := rlyB.Metrics().DeliveredDirect; got != 1 {
		t.Fatalf("partner DeliveredDirect = %d, want 1", got)
	}

	// Exactly once: the hand-off must not also leave a duplicate behind.
	time.Sleep(150 * time.Millisecond)
	if n := len(bobEvents.OfType(events.SecureMessage)); n != 1 {
		t.Fatalf("bob saw %d copies of the handed-off slice", n)
	}
}
