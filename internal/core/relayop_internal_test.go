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
)

// TestKeptSlicesOwnTheirBytes: a slice the relay keeps is a copy of its
// own, never a view of the upload frame the round was parsed from. One
// round goes to two recipients the broker cannot push to at once: carol,
// logged out (queued), and erin, logged in but cut off from the broker (a
// direct push that fails, then queued). The upload frame is overwritten
// as soon as the handler returns; then carol logs back in and erin's
// link heals. Each receives her slice, byte for byte the round's, and it
// opens under her key.
func TestKeptSlicesOwnTheirBytes(t *testing.T) {
	net := simnet.NewNetwork(simnet.ProfileLocal)
	defer net.Close()
	db := userdb.NewStoreIter(4)
	for _, u := range []string{"alice", "carol", "erin"} {
		if err := db.Register(u, "pw", "math"); err != nil {
			t.Fatal(err)
		}
	}
	br, err := broker.New(broker.Config{Name: "kept-broker", PeerID: keys.LegacyPeerID("kept-broker"), Net: net, DB: broker.LocalDB(db)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(br.Close)
	rly, err := EnableBrokerRelay(br, RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rly.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// join logs a plain client in; what the relay pushes it arrives on
	// got, copied.
	join := func(alias string) (*client.Client, chan []byte) {
		cl, err := client.New(net, membership.NewNone(), alias)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		got := make(chan []byte, 1)
		cl.SetEnvelopeHandlers(nil, func(_ string, _, wire []byte, _ uint64) {
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
	alice, _ := join("alice")
	carol, atCarol := join("carol")
	if err := carol.Logout(ctx); err != nil {
		t.Fatal(err)
	}
	erin, atErin := join("erin")
	net.Partition(simnet.NodeID(br.PeerID()), simnet.NodeID(erin.PeerID()))

	rcpts := []struct {
		id  keys.PeerID
		kp  *keys.KeyPair
		got chan []byte
	}{{carol.PeerID(), recvKP, atCarol}, {erin.PeerID(), senderKP, atErin}}
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
		relayRoundMsg("math", peers, d, []int{0, 1}, 0).Elements...)
	upload, err := endpoint.ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	resp := br.Dispatch(alice.PeerID(), upload.Msg)
	for elem, want := range map[string]int{proto.ElemRelayDirect: 0, proto.ElemRelayQueued: 2, proto.ElemRelaySkipped: 0} {
		if got := countOf(resp, elem); got != want {
			t.Fatalf("%s = %d, want %d", elem, got, want)
		}
	}
	if got := rly.Metrics().DeliverErrors; got == 0 {
		t.Fatal("the push to erin did not fail")
	}
	// What the broker keeps must not be what it was handed.
	for i := range frame {
		frame[i] = 0xA5
	}

	if err := carol.Login(ctx, "pw"); err != nil {
		t.Fatal(err)
	}
	net.Heal(simnet.NodeID(br.PeerID()), simnet.NodeID(erin.PeerID()))
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
