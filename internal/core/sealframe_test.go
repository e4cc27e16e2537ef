package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/control"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
	"jxtaoverlay/internal/waituntil"
)

// A secure send seals its wire into the endpoint frame that carries it
// (sendSecure). These tests drive that path between two live clients.

// securePair brings up a broker and two clients joined to it in group
// "math", alice and bob, on a fabric of their own.
func securePair(t testing.TB) (net *simnet.Network, alice, bob *SecureClient) {
	t.Helper()
	net = simnet.NewNetwork(simnet.ProfileLocal)
	t.Cleanup(net.Close)
	dep, err := NewDeploymentFromKey(mustKey(430), "admin")
	if err != nil {
		t.Fatal(err)
	}
	db := userdb.NewStoreIter(4)
	db.Register("alice", "pw-alice", "math")
	db.Register("bob", "pw-bob", "math")
	site, err := dep.StartBroker(broker.Config{Name: "broker-1", Net: net, DB: broker.LocalDB(db), RequireSecureLogin: true},
		BrokerConfig{KeyPair: mustKey(431)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	join := func(alias string) *SecureClient {
		sc, err := dep.NewClient(net, alias)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sc.Close)
		if err := sc.Join(ctx, site.Broker.PeerID(), "pw-"+alias); err != nil {
			t.Fatal(err)
		}
		return sc
	}
	return net, join("alice"), join("bob")
}

// sendDelivered sends text from alice to bob and waits until bob raised it.
func sendDelivered(t *testing.T, alice, bob *SecureClient, got *events.Collector, text string) {
	t.Helper()
	if err := alice.SecureMsgPeer(context.Background(), bob.PeerID(), "math", text); err != nil {
		t.Fatalf("send %q: %v", text, err)
	}
	waituntil.Must(t, 5*time.Second, func() bool {
		for _, e := range got.OfType(events.SecureMessage) {
			if string(e.Data) == text {
				return true
			}
		}
		return false
	}, "%q never delivered", text)
}

// TestSealedIntoFrameWireLayout pins the frames a secure send puts on the
// wire now that each wire is sealed into its frame: an envelope carrying
// an offer, the accept that answers it, a channel frame, and the refusal
// of a frame whose channel its recipient dropped. Each parses; its prefix
// names its sender and its recipient's group pipe; its elements are the
// wire and the group, in that order, the wire exactly as long as its form
// says; and NewFrame rebuilds it, byte for byte, from what was parsed.
func TestSealedIntoFrameWireLayout(t *testing.T) {
	net, alice, bob := securePair(t)
	var mu sync.Mutex
	captured := map[Mode][]byte{}
	net.AddTap(func(p simnet.Packet) {
		f, err := endpoint.ParseFrame(p.Payload)
		if err != nil || !strings.HasPrefix(string(f.Service), control.PipeService) {
			return
		}
		if wire, ok := f.Msg.Get(proto.ElemEnvelope); ok && len(wire) > 0 {
			mu.Lock()
			if _, seen := captured[Mode(wire[0])]; !seen {
				captured[Mode(wire[0])] = bytes.Clone(p.Payload)
			}
			mu.Unlock()
		}
	})
	got := events.NewCollector(bob.Bus())
	sendDelivered(t, alice, bob, got, "the envelope")
	waituntil.Must(t, 5*time.Second, func() bool { return ChannelTo(alice, bob.PeerID(), "math") }, "the accept never reached alice")
	const body = "a channel frame"
	sendDelivered(t, alice, bob, got, body)
	bob.chans.reset() // bob forgets the channel: alice's next frame is refused, and sent again as an envelope
	sendDelivered(t, alice, bob, got, "after the refusal")

	mu.Lock()
	defer mu.Unlock()
	for _, tc := range []struct {
		mode     Mode
		from, to *SecureClient
		wireLen  func(wire []byte) int
	}{
		{ModeFull, alice, bob, func(wire []byte) int {
			o, err := openWire(bob.kp, bytes.Clone(wire), formEnvelope, nil, nil, nil, time.Now())
			if err != nil {
				t.Fatalf("the captured envelope does not open: %v", err)
			}
			return 1 + keys.EnvelopePrefix + len(o.Header()) + len("the envelope") + keys.AEADOverhead
		}},
		{ModeAccept, bob, alice, func([]byte) int { return acceptSize }},
		{ModeChannel, alice, bob, func([]byte) int { return framePrefix + frameTimeSize + len(body) + keys.AEADOverhead }},
		{ModeRefusal, bob, alice, func([]byte) int { return framePrefix }},
	} {
		frame, ok := captured[tc.mode]
		if !ok {
			t.Errorf("%s: no frame captured", tc.mode)
			continue
		}
		f, err := endpoint.ParseFrame(frame)
		if err != nil {
			t.Fatalf("%s: %v", tc.mode, err)
		}
		if string(f.Src) != string(tc.from.PeerID()) || string(f.Service) != control.PipeService+advert.GroupPipeID(tc.to.PeerID(), "math") ||
			f.Corr != endpoint.CorrNone || len(f.CorrID) != 0 {
			t.Errorf("%s: prefix %q %q %d %q", tc.mode, f.Src, f.Service, f.Corr, f.CorrID)
		}
		els := f.Msg.Elements
		if len(els) != 2 || els[0].Name != proto.ElemEnvelope || els[1].Name != proto.ElemGroup || string(els[1].Data) != "math" {
			t.Fatalf("%s: elements %+v, want the wire and the group", tc.mode, els)
		}
		if want := tc.wireLen(els[0].Data); len(els[0].Data) != want {
			t.Errorf("%s: a wire of %d bytes, want %d", tc.mode, len(els[0].Data), want)
		}
		r := endpoint.Route{Src: keys.PeerID(f.Src), Service: string(f.Service), Corr: f.Corr, CorrID: f.CorrID}
		if rebuilt := endpoint.NewFrame(r, els...); !bytes.Equal(rebuilt, frame) {
			t.Errorf("%s: NewFrame does not rebuild the frame from what was parsed:\n got %x\nwant %x", tc.mode, rebuilt, frame)
		}
	}
}

// TestSecureMsgPeerRefusesFrameTooLarge: a text whose frame its
// recipient's parser would drop as malformed is refused at the sender,
// ErrFrameTooLarge, before anything is sent, claimed or signed — on an
// established channel, whose next frame number it does not claim, and
// to a peer it has none with. Before, SecureMsgPeer returned
// nil for it and the message was lost without a word.
func TestSecureMsgPeerRefusesFrameTooLarge(t *testing.T) {
	net, alice, bob := securePair(t)
	got := events.NewCollector(bob.Bus())
	sendDelivered(t, alice, bob, got, "the envelope")
	waituntil.Must(t, 5*time.Second, func() bool { return ChannelTo(alice, bob.PeerID(), "math") }, "the accept never reached alice")

	huge := strings.Repeat("x", 64<<20+1)
	signs := func() uint64 { return alice.kp.SignCalls() + bob.kp.SignCalls() }
	sent, signed := net.Stats().Sent, signs()
	if err := alice.SecureMsgPeer(context.Background(), bob.PeerID(), "math", huge); !errors.Is(err, endpoint.ErrFrameTooLarge) {
		t.Fatalf("a %d-byte text on a channel: err = %v, want ErrFrameTooLarge", len(huge), err)
	}
	if err := bob.SecureMsgPeer(context.Background(), alice.PeerID(), "math", huge); !errors.Is(err, endpoint.ErrFrameTooLarge) {
		t.Fatalf("a %d-byte text to a peer with no channel: err = %v, want ErrFrameTooLarge", len(huge), err)
	}
	if n := net.Stats().Sent - sent; n != 0 {
		t.Fatalf("%d packets sent for two refused texts, want none", n)
	}
	if n := signs() - signed; n != 0 {
		t.Fatalf("%d signatures for refused texts, want none", n)
	}
	alice.chans.mu.Lock()
	c, _ := alice.chans.out.Get(pairKey{bob.PeerID(), "math"}, alice.Now())
	seq := c.seq
	alice.chans.mu.Unlock()
	if seq != 0 {
		t.Fatalf("the refused text claimed frame %d of the channel", seq)
	}
	sendDelivered(t, alice, bob, got, "fits")
}
