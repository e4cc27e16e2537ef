// Package integration_test exercises the whole stack end-to-end under
// adverse network conditions: real latency, jitter, and packet loss.
// The unit suites run on a zero-latency fabric; these tests confirm the
// middleware's stated behaviours — best-effort messaging, reliable
// request/response ops, secure primitives — survive a hostile wire.
package integration_test

import (
	"context"
	"testing"
	"time"

	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
	"jxtaoverlay/internal/waituntil"
)

func ctxT(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// newDeployment is a fresh administrator.
func newDeployment(t *testing.T) *core.Deployment {
	t.Helper()
	dep, err := core.NewDeployment("admin", 0)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// startBroker brings a broker of dep up on net, secure login only,
// serving db, and closes it with the test.
func startBroker(t *testing.T, dep *core.Deployment, net *simnet.Network, name string, db *userdb.Store, sc core.BrokerConfig) *core.BrokerSite {
	t.Helper()
	site, err := dep.StartBroker(
		broker.Config{Name: name, Net: net, DB: broker.LocalDB(db), RequireSecureLogin: true}, sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	return site
}

// newClient boots alias's secure client and closes it with the test.
func newClient(t *testing.T, dep *core.Deployment, net *simnet.Network, alias string, opts ...core.Option) *core.SecureClient {
	t.Helper()
	sc, err := dep.NewClient(net, alias, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sc.Close)
	return sc
}

// join logs sc in at br; every user of these tests has the password "pw".
func join(t *testing.T, sc *core.SecureClient, br *broker.Broker) *core.SecureClient {
	t.Helper()
	if err := sc.Join(ctxT(t, 30*time.Second), br.PeerID(), "pw"); err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestSecureSessionOverWAN(t *testing.T) {
	// Full secure join + messaging with 40ms latency and jitter. This is
	// wall-clock real: each round trip actually sleeps.
	net := simnet.NewNetworkSeeded(simnet.LinkProfile{
		Latency: 10 * time.Millisecond, Jitter: 3 * time.Millisecond, Bandwidth: 1_250_000,
	}, 7)
	defer net.Close()

	dep := newDeployment(t)
	db := userdb.NewStoreIter(4)
	db.Register("alice", "pw", "g")
	db.Register("bob", "pw", "g")
	br := startBroker(t, dep, net, "wan-broker", db, core.BrokerConfig{RequireSignedAdvs: true}).Broker

	alice := join(t, newClient(t, dep, net, "alice"), br)
	bob := join(t, newClient(t, dep, net, "bob"), br)

	bobEvents := events.NewCollector(bob.Bus())
	ctx := ctxT(t, 30*time.Second)
	start := time.Now()
	if err := alice.SecureMsgPeer(ctx, bob.PeerID(), "g", "over the wan"); err != nil {
		t.Fatal(err)
	}
	if _, ok := bobEvents.WaitFor(events.SecureMessage, 20*time.Second); !ok {
		t.Fatal("secure message lost over WAN")
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("delivery after %v — latency model not applied?", elapsed)
	}
}

func TestBestEffortMessagingUnderLoss(t *testing.T) {
	// 30% loss. Broker ops ride on request/response and genuinely fail
	// sometimes (JXTA-Overlay treats those as call failures); the
	// messenger primitive is explicitly best-effort. This test confirms
	// the stack degrades rather than wedges: with retries, a session is
	// established and at least some messages land.
	net := simnet.NewNetworkSeeded(simnet.LinkProfile{Loss: 0.3}, 99)
	defer net.Close()
	db := userdb.NewStoreIter(4)
	db.Register("alice", "pw", "g")
	db.Register("bob", "pw", "g")
	br, err := broker.New(broker.Config{
		Name: "lossy-broker", PeerID: keys.LegacyPeerID("lossy-broker"), Net: net,
		DB: broker.LocalDB(db),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()

	cl := mustJoinLossy(t, net, br, "alice")
	bob := mustJoinLossy(t, net, br, "bob")

	bobEvents := events.NewCollector(bob.Bus())
	sent := 0
	for i := 0; i < 30; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		if err := cl.SendMsgPeer(ctx, bob.PeerID(), "g", "best effort"); err == nil {
			sent++
		}
		cancel()
	}
	if sent == 0 {
		t.Fatal("no message was ever sent under 30% loss")
	}
	// At least one send must land (p(all lost) is negligible).
	if _, ok := bobEvents.WaitFor(events.MessageReceived, 10*time.Second); !ok {
		t.Fatalf("none of %d sent messages arrived", sent)
	}
}

// mustJoinLossy retries connect+login until the session is up.
func mustJoinLossy(t *testing.T, net *simnet.Network, br *broker.Broker, alias string) *client.Client {
	t.Helper()
	cl, err := client.New(net, membership.NewNone(), alias)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if waituntil.True(30*time.Second, func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		err = cl.Connect(ctx, br.PeerID())
		cancel()
		if err != nil {
			return false
		}
		ctx, cancel = context.WithTimeout(context.Background(), 500*time.Millisecond)
		err = cl.Login(ctx, "pw")
		cancel()
		return err == nil
	}) {
		return cl
	}
	t.Fatalf("%s could not join under loss: %v", alias, err)
	return nil
}

func TestPartitionAndHealSession(t *testing.T) {
	// A partition between client and broker makes ops fail; healing
	// restores service without rebuilding the session.
	net := simnet.NewNetwork(simnet.ProfileLocal)
	defer net.Close()
	db := userdb.NewStoreIter(4)
	db.Register("alice", "pw", "g")
	br, err := broker.New(broker.Config{
		Name: "b", PeerID: keys.LegacyPeerID("b"), Net: net,
		DB: broker.LocalDB(db),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	cl, err := client.New(net, membership.NewNone(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := ctxT(t, 20*time.Second)
	if err := cl.Connect(ctx, br.PeerID()); err != nil {
		t.Fatal(err)
	}
	if err := cl.Login(ctx, "pw"); err != nil {
		t.Fatal(err)
	}

	net.Partition(simnet.NodeID(cl.PeerID()), br.NodeID())
	shortCtx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	_, err = cl.GetOnlinePeers(shortCtx, "g")
	cancel()
	if err == nil {
		t.Fatal("op succeeded across a partition")
	}

	net.Heal(simnet.NodeID(cl.PeerID()), br.NodeID())
	peers, err := cl.GetOnlinePeers(ctx, "g")
	if err != nil {
		t.Fatalf("op after heal: %v", err)
	}
	if len(peers) != 1 {
		t.Fatalf("peers after heal = %v", peers)
	}
}
