package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
	"jxtaoverlay/internal/waituntil"
)

// TestKeptSlicesOwnTheirBytes: a slice the relay keeps is a copy of its
// own, never a view of the upload frame the round was parsed from. One
// round goes to three recipients the broker cannot push to at once:
// carol, logged out (queued), dave, logged in at the federation partner
// (handed off), and erin, logged in but cut off from the broker (a
// direct push that fails, then queued). The upload frame is overwritten
// as soon as the handler returns; then carol logs back in and erin's
// link heals. Each receives her slice, byte for byte the round's, and it
// opens under her key.
func TestKeptSlicesOwnTheirBytes(t *testing.T) {
	net := simnet.NewNetwork(simnet.ProfileLocal)
	defer net.Close()
	db := userdb.NewStoreIter(4)
	for _, u := range []string{"alice", "carol", "dave", "erin"} {
		if err := db.Register(u, "pw", "math"); err != nil {
			t.Fatal(err)
		}
	}
	newBroker := func(name string) *broker.Broker {
		b, err := broker.New(broker.Config{Name: name, PeerID: keys.LegacyPeerID(name), Net: net, DB: broker.LocalDB(db)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Close)
		return b
	}
	brA, brB := newBroker("kept-broker-a"), newBroker("kept-broker-b")
	brA.Federate(brB.PeerID())
	brB.Federate(brA.PeerID())
	rlyA, err := EnableBrokerRelay(brA, RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rlyA.Close)
	rlyB, err := EnableBrokerRelay(brB, RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rlyB.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// join logs a plain client in at br; what the relay pushes it arrives
	// on got, copied.
	join := func(alias string, br *broker.Broker) (*client.Client, chan []byte) {
		cl, err := client.New(net, membership.NewNone(), alias)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		got := make(chan []byte, 1)
		cl.SetEnvelopeHandlers(nil, func(_ string, _ keys.PeerID, msg *endpoint.Message) {
			wire, _ := msg.Get(proto.ElemEnvelope)
			got <- bytes.Clone(wire)
		})
		if err := cl.Connect(ctx, br.PeerID()); err != nil {
			t.Fatal(err)
		}
		if err := cl.Login(ctx, "pw"); err != nil {
			t.Fatal(err)
		}
		return cl, got
	}
	alice, _ := join("alice", brA)
	carol, atCarol := join("carol", brA)
	if err := carol.Logout(ctx); err != nil {
		t.Fatal(err)
	}
	dave, atDave := join("dave", brB)
	erin, atErin := join("erin", brA)
	waituntil.Must(t, 5*time.Second, func() bool {
		return brA.KnownMember(dave.PeerID(), "math") && !brA.PeerResident(dave.PeerID())
	}, "broker A never learned dave through federation")
	net.Partition(simnet.NodeID(brA.PeerID()), simnet.NodeID(erin.PeerID()))

	rcpts := []struct {
		id  keys.PeerID
		kp  *keys.KeyPair
		got chan []byte
	}{{carol.PeerID(), recvKP, atCarol}, {dave.PeerID(), evilKP, atDave}, {erin.PeerID(), senderKP, atErin}}
	peers := make([]keys.PeerID, len(rcpts))
	pubs := make([]*keys.PublicKey, len(rcpts))
	for i, r := range rcpts {
		peers[i], pubs[i] = r.id, r.kp.Public()
	}
	d, err := SealGroupDetached(senderKP, alice.PeerID(), "math", []byte("kept"), pubs)
	if err != nil {
		t.Fatal(err)
	}
	frame := endpoint.NewFrame(endpoint.Route{Src: alice.PeerID(), Service: proto.BrokerService},
		relayRoundMsg("math", peers, d, []int{0, 1, 2}, 0).Elements...)
	upload, err := endpoint.ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	resp := relayRoundHandler(brA, rlyA)(alice.PeerID(), upload.Msg)
	for elem, want := range map[string]int{proto.ElemRelayDirect: 0, proto.ElemRelayQueued: 2, proto.ElemRelayHandoff: 1, proto.ElemRelaySkipped: 0} {
		if got := countOf(resp, elem); got != want {
			t.Fatalf("%s = %d, want %d", elem, got, want)
		}
	}
	if got := rlyA.Metrics().DeliverErrors; got == 0 {
		t.Fatal("the push to erin did not fail")
	}
	// What the broker keeps must not be what it was handed.
	for i := range frame {
		frame[i] = 0xA5
	}

	if err := carol.Login(ctx, "pw"); err != nil {
		t.Fatal(err)
	}
	net.Heal(simnet.NodeID(brA.PeerID()), simnet.NodeID(erin.PeerID()))
	for i, r := range rcpts {
		var wire []byte
		select {
		case wire = <-r.got:
		case <-ctx.Done():
			t.Fatalf("recipient %d received no slice", i)
		}
		if !bytes.Equal(wire, d.Slice(i)) {
			t.Fatalf("recipient %d received %d bytes that are not her slice", i, len(wire))
		}
		o, err := OpenSlice(r.kp, wire, nil)
		if err != nil {
			t.Fatalf("recipient %d: %v", i, err)
		}
		if string(o.Body) != "kept" {
			t.Fatalf("recipient %d opened %q", i, o.Body)
		}
	}
}
