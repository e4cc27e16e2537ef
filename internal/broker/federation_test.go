package broker_test

import (
	"context"
	"strconv"
	"testing"
	"time"

	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
)

// fedHarness is a two-broker federated network over one shared user
// database, as §2.1 describes.
type fedHarness struct {
	t        *testing.T
	net      *simnet.Network
	brA, brB *broker.Broker
	db       *userdb.Store
}

func newFedHarness(t *testing.T) *fedHarness {
	t.Helper()
	net := simnet.NewNetwork(simnet.ProfileLocal)
	t.Cleanup(net.Close)
	db := userdb.NewStoreIter(4)
	db.Register("alice", "pw", "math")
	db.Register("bob", "pw", "math")
	auth := broker.LocalDB(db)
	mk := func(name string) *broker.Broker {
		b, err := broker.New(broker.Config{
			Name: name, PeerID: keys.LegacyPeerID(name), Net: net, DB: auth,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Close)
		return b
	}
	brA, brB := mk("broker-a"), mk("broker-b")
	brA.Federate(brB.PeerID())
	brB.Federate(brA.PeerID())
	return &fedHarness{t: t, net: net, brA: brA, brB: brB, db: db}
}

func (h *fedHarness) login(alias string, br *broker.Broker) *client.Client {
	h.t.Helper()
	cl, err := client.New(h.net, membership.NewNone(), alias)
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(cl.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.Connect(ctx, br.PeerID()); err != nil {
		h.t.Fatal(err)
	}
	if err := cl.Login(ctx, "pw"); err != nil {
		h.t.Fatal(err)
	}
	return cl
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not met within deadline")
}

func TestFederationSharesPeerRegistry(t *testing.T) {
	h := newFedHarness(t)
	alice := h.login("alice", h.brA)
	_ = h.login("bob", h.brB)

	// Broker A learns about bob (connected to B) and vice versa.
	waitUntil(t, func() bool {
		info, ok := h.brA.Peer(keys.LegacyPeerID("bob"))
		return ok && info.Online && !info.Local()
	})
	waitUntil(t, func() bool {
		info, ok := h.brB.Peer(alice.PeerID())
		return ok && info.Online && info.Origin == h.brA.PeerID()
	})

	// Alice (on A) sees bob in the math group listing.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var sawBob bool
	waitUntil(t, func() bool {
		peers, err := alice.GetOnlinePeers(ctx, "math")
		if err != nil {
			return false
		}
		for _, p := range peers {
			if p.Username == "bob" {
				sawBob = true
			}
		}
		return sawBob
	})
}

func TestFederationCrossBrokerMessaging(t *testing.T) {
	h := newFedHarness(t)
	alice := h.login("alice", h.brA)
	bob := h.login("bob", h.brB)

	// Bob's pipe advertisement (published to B) must reach A's index.
	waitUntil(t, func() bool {
		recs := h.brA.Cache().Find("PipeAdvertisement", nil)
		for _, r := range recs {
			if r.Doc.ChildText("PeerID") == string(bob.PeerID()) {
				return true
			}
		}
		return false
	})

	bobEvents := events.NewCollector(bob.Bus())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := alice.SendMsgPeer(ctx, bob.PeerID(), "math", "cross-broker hello"); err != nil {
		t.Fatalf("cross-broker SendMsgPeer: %v", err)
	}
	e, ok := bobEvents.WaitFor(events.MessageReceived, 5*time.Second)
	if !ok {
		t.Fatal("message across brokers not delivered")
	}
	if string(e.Data) != "cross-broker hello" {
		t.Fatalf("payload = %q", e.Data)
	}
}

func TestFederationPeerDown(t *testing.T) {
	h := newFedHarness(t)
	alice := h.login("alice", h.brA)
	bob := h.login("bob", h.brB)
	waitUntil(t, func() bool {
		info, ok := h.brA.Peer(bob.PeerID())
		return ok && info.Online
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := bob.Logout(ctx); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool {
		info, ok := h.brA.Peer(bob.PeerID())
		return ok && !info.Online
	})
	peers, err := alice.GetOnlinePeers(ctx, "math")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		if p.Username == "bob" {
			t.Fatal("bob still listed on broker A after logout at broker B")
		}
	}
}

func TestFederationIgnoresNonPartners(t *testing.T) {
	h := newFedHarness(t)
	// A rogue broker not in the federation sends a fedPeerUp; it must be
	// ignored.
	rogue, err := broker.New(broker.Config{
		Name: "rogue", PeerID: keys.LegacyPeerID("rogue"), Net: h.net,
		DB: broker.AuthenticatorFunc(func(_ context.Context, u, p string) ([]string, error) {
			return nil, nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rogue.Close()
	rogue.Federate(h.brA.PeerID()) // one-sided: A does not trust rogue
	rogue.RegisterPeer("urn:jxta:uuid-ghost", "ghost", []string{"math"})
	time.Sleep(100 * time.Millisecond)
	if _, ok := h.brA.Peer("urn:jxta:uuid-ghost"); ok {
		t.Fatal("broker A accepted a peer from a non-partner broker")
	}
}

func TestFederateAnnouncesExistingPeers(t *testing.T) {
	net := simnet.NewNetwork(simnet.ProfileLocal)
	t.Cleanup(net.Close)
	db := userdb.NewStoreIter(4)
	db.Register("alice", "pw", "math")
	auth := broker.LocalDB(db)
	brA, err := broker.New(broker.Config{Name: "a", PeerID: keys.LegacyPeerID("a"), Net: net, DB: auth})
	if err != nil {
		t.Fatal(err)
	}
	defer brA.Close()
	brB, err := broker.New(broker.Config{Name: "b", PeerID: keys.LegacyPeerID("b"), Net: net, DB: auth})
	if err != nil {
		t.Fatal(err)
	}
	defer brB.Close()

	// Alice logs into A before the federation link exists.
	cl, err := client.New(net, membership.NewNone(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.Connect(ctx, brA.PeerID()); err != nil {
		t.Fatal(err)
	}
	if err := cl.Login(ctx, "pw"); err != nil {
		t.Fatal(err)
	}

	// Federating later still announces alice to B.
	brB.Federate(brA.PeerID())
	brA.Federate(brB.PeerID())
	waitUntil(t, func() bool {
		info, ok := brB.Peer(cl.PeerID())
		return ok && info.Online
	})
	if got := brB.FederationPartners(); len(got) != 1 || got[0] != brA.PeerID() {
		t.Fatalf("partners = %v", got)
	}
}

// TestFederationStalePresenceIgnored: broker-to-broker presence pushes
// are delivered with no ordering guarantee, so a peer-up or peer-down
// describing a peer's PREVIOUS session can arrive after the peer has
// already re-registered — here, locally. The session timestamp the
// messages carry must keep presence monotonic: the stale updates are
// discarded (a live local login is never clobbered into a federation-
// resident or offline record, which would misroute relay hand-offs),
// while a genuinely newer remote session still supersedes the local
// record once the peer really moves.
func TestFederationStalePresenceIgnored(t *testing.T) {
	net := simnet.NewNetwork(simnet.ProfileLocal)
	defer net.Close()
	db := userdb.NewStoreIter(4)
	db.Register("bob", "pw", "math")
	br, err := broker.New(broker.Config{
		Name: "b", PeerID: keys.LegacyPeerID("b"), Net: net,
		DB: broker.LocalDB(db),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	partnerID := keys.LegacyPeerID("partner")
	partner, err := endpoint.NewService(net, partnerID)
	if err != nil {
		t.Fatal(err)
	}
	defer partner.Close()
	br.Federate(partnerID)

	bob := h2Login(t, net, br)
	if !br.PeerResident(bob.PeerID()) || !br.PeerOnline(bob.PeerID()) {
		t.Fatal("local login did not register bob resident+online")
	}

	// The partner replays bob's old session: a peer-up and peer-down
	// whose session started a minute before his live local one.
	stale := time.Now().Add(-time.Minute).UnixNano()
	send := func(msg *endpoint.Message) {
		t.Helper()
		if err := partner.Send(br.PeerID(), proto.BrokerService, msg); err != nil {
			t.Fatal(err)
		}
	}
	send(endpoint.NewMessage().
		AddString(proto.ElemOp, "fedPeerUp").
		AddString(proto.ElemPeer, string(bob.PeerID())).
		AddString(proto.ElemUser, "bob").
		AddString(proto.ElemGroups, "math").
		AddString(proto.ElemFedSession, strconv.FormatInt(stale, 10)))
	send(endpoint.NewMessage().
		AddString(proto.ElemOp, "fedPeerDown").
		AddString(proto.ElemPeer, string(bob.PeerID())).
		AddString(proto.ElemFedSession, strconv.FormatInt(stale, 10)))
	// Ignoring is the absence of a transition: watch the record through
	// the delivery window and fail the moment it flips.
	hold := time.Now().Add(150 * time.Millisecond)
	for time.Now().Before(hold) {
		if !br.PeerResident(bob.PeerID()) || !br.PeerOnline(bob.PeerID()) {
			t.Fatal("stale federation update clobbered a live local session")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A NEWER remote session still wins: bob really moved brokers.
	fresh := time.Now().UnixNano()
	send(endpoint.NewMessage().
		AddString(proto.ElemOp, "fedPeerUp").
		AddString(proto.ElemPeer, string(bob.PeerID())).
		AddString(proto.ElemUser, "bob").
		AddString(proto.ElemGroups, "math").
		AddString(proto.ElemFedSession, strconv.FormatInt(fresh, 10)))
	waitUntil(t, func() bool {
		return br.PeerOrigin(bob.PeerID()) == partnerID && !br.PeerResident(bob.PeerID())
	})
}

// h2Login logs bob into a single plain broker (no harness).
func h2Login(t *testing.T, net *simnet.Network, br *broker.Broker) *client.Client {
	t.Helper()
	cl, err := client.New(net, membership.NewNone(), "bob")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.Connect(ctx, br.PeerID()); err != nil {
		t.Fatal(err)
	}
	if err := cl.Login(ctx, "pw"); err != nil {
		t.Fatal(err)
	}
	return cl
}
