package core_test

import (
	"context"
	"strconv"
	"testing"
	"time"

	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
)

// TestRelayHandsOffFederationResidentRecipients: a group member logged
// in at a federation partner must NOT be queued for locally — its
// presence events (and therefore the queue drain) fire at its own
// broker, so a queue here could only expire. Instead of refusing the
// slice (the pre-hand-off behavior), the relay op forwards it to the
// partner broker that owns the recipient, whose own relay delivers it
// directly. Recipients with no session record anywhere are still
// skipped and counted — a shortfall is never silent.
func TestRelayHandsOffFederationResidentRecipients(t *testing.T) {
	net := simnet.NewNetwork(simnet.ProfileLocal)
	defer net.Close()
	db := userdb.NewStoreIter(4)
	db.Register("alice", "pw", "math")
	db.Register("bob", "pw", "math")
	auth := broker.LocalDB(db)
	mk := func(name string) *broker.Broker {
		b, err := broker.New(broker.Config{Name: name, PeerID: keys.LegacyPeerID(name), Net: net, DB: auth})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Close)
		return b
	}
	brA, brB := mk("fed-broker-a"), mk("fed-broker-b")
	brA.Federate(brB.PeerID())
	brB.Federate(brA.PeerID())
	rlyA, err := core.EnableBrokerRelay(brA, core.RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rlyA.Close()
	rlyB, err := core.EnableBrokerRelay(brB, core.RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rlyB.Close()

	login := func(alias string, br *broker.Broker) *client.Client {
		cl, err := client.New(net, membership.NewNone(), alias)
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
	alice := login("alice", brA)
	bob := login("bob", brB)

	// Broker A learns bob's session record through federation.
	deadline := time.Now().Add(5 * time.Second)
	for !brA.KnownMember(bob.PeerID(), "math") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !brA.KnownMember(bob.PeerID(), "math") {
		t.Fatal("broker A never learned bob through federation")
	}
	if brA.PeerResident(bob.PeerID()) {
		t.Fatal("federation-origin peer reported resident")
	}
	if !brA.PeerResident(alice.PeerID()) {
		t.Fatal("locally logged-in peer not resident")
	}
	if brA.PeerOrigin(bob.PeerID()) != brB.PeerID() {
		t.Fatalf("PeerOrigin(bob) = %q, want broker B", brA.PeerOrigin(bob.PeerID()))
	}

	// One sealed round addressed to bob (federation-resident) and a peer
	// the broker has no session record for. The wrap keys need not be
	// real recipient keys: the broker holds no keys and routes on
	// residency and roster facts alone — and every recipient must land
	// in exactly one counter.
	kp, err := keys.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.SealGroupDetached(kp, alice.PeerID(), "math", []byte("cross-broker"),
		[]*keys.PublicKey{kp.Public(), kp.Public()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := alice.Call(ctx, endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpRelayRound).
		AddString(proto.ElemGroup, "math").
		AddString(proto.ElemRecipients, string(bob.PeerID())+",urn:jxta:nobody").
		Add(proto.ElemEnvelope, d.Wire()))
	if err != nil {
		t.Fatal(err)
	}
	count := func(elem string) int {
		v, _ := resp.GetString(elem)
		n, _ := strconv.Atoi(v)
		return n
	}
	direct, queued := count(proto.ElemRelayDirect), count(proto.ElemRelayQueued)
	handoff, skipped := count(proto.ElemRelayHandoff), count(proto.ElemRelaySkipped)
	if direct != 0 || queued != 0 || handoff != 1 || skipped != 1 {
		t.Fatalf("direct=%d queued=%d handoff=%d skipped=%d, want 0/0/1/1", direct, queued, handoff, skipped)
	}
	if got := rlyA.QueuedTotal(); got != 0 {
		t.Fatalf("origin relay queued %d slices for partner-resident recipients", got)
	}
	if got := rlyA.Metrics().HandedOff; got != 1 {
		t.Fatalf("HandedOff = %d, want 1", got)
	}
	// The partner's relay received the forwarded slice and, with bob
	// logged in there, pushed it directly.
	waitMetric := func(get func() uint64, want uint64, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for get() < want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := get(); got != want {
			t.Fatalf("%s = %d, want %d", what, got, want)
		}
	}
	waitMetric(func() uint64 { return rlyB.Metrics().DeliveredDirect }, 1, "partner DeliveredDirect")
}
