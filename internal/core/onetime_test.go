package core_test

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/discovery"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/relay"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/telemetry"
	"jxtaoverlay/internal/waituntil"
)

// TestOneNodeOneTime pins the rule that a node has one clock: its
// endpoint's. Each case brings a node up, lets it collect state that
// expires, moves its clock with ONE call, and then holds everything the
// node signs, checks or expires to the new time. A site that still read
// the wall, or a table with a clock of its own, would stay behind.
func TestOneNodeOneTime(t *testing.T) {
	for _, node := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"broker", brokerMovesAsOne},
		{"client", clientMovesAsOne},
	} {
		t.Run(node.name, node.run)
	}
}

// zone is a clock a test moves: the wall plus what ahead holds.
type zone struct{ ahead atomic.Int64 }

func (z *zone) now() time.Time       { return time.Now().Add(time.Duration(z.ahead.Load())) }
func (z *zone) move(d time.Duration) { z.ahead.Store(int64(d)) }

// near reports whether got is within a few seconds of want: the slack a
// loaded machine needs between two readings of a running clock.
func near(got, want time.Time) bool { return got.Sub(want).Abs() < 5*time.Second }

func brokerMovesAsOne(t *testing.T) {
	const (
		leaseTTL = 10 * time.Minute
		// Past every window the broker keeps: session identifiers, the
		// dedup window and the request-timestamp window (2 min each), the
		// relay's TTL, the lease, a pipe advertisement's lifetime (15 min).
		jump = 20 * time.Minute
	)
	h := newSecureHarnessWith(t, core.BrokerConfig{RequireSignedAdvs: true, LeaseTTL: leaseTTL})
	var z zone
	h.br.Endpoint().SetClock(z.now)
	rly, err := core.EnableBrokerRelay(h.br, core.RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rly.Close()
	ctx := testCtx(t)

	// What the broker holds before its clock moves: alice's session, lease
	// and pipe advertisement; a session identifier bob has not presented;
	// an acknowledged keyed mutation; a slice queued for a peer that is away.
	alice := h.secureClient("alice")
	h.join(alice, "pw-alice")
	bob := h.secureClient("bob")
	if err := bob.SecureConnection(ctx, h.br.PeerID()); err != nil {
		t.Fatal(err)
	}
	if err := alice.SecureHeartbeat(ctx); err != nil {
		t.Fatalf("heartbeat before the move: %v", err)
	}
	create := func() error {
		_, err := alice.Call(ctx, endpoint.NewMessage().
			AddString(proto.ElemOp, proto.OpGroupCreate).
			AddString(proto.ElemGroup, "proj").
			AddString(proto.ElemDesc, "project").
			AddString(proto.ElemIdem, "ik-one-time"))
		return err
	}
	if err := create(); err != nil {
		t.Fatal(err)
	}
	const away = keys.PeerID("urn:jxta:away")
	if got := rly.Submit(relay.Item{To: away, From: alice.PeerID(), Group: "math", Payload: []byte("slice")}); got != relay.SubmitQueued {
		t.Fatalf("submit for an offline peer = %v, want queued", got)
	}
	alicePipe := advert.GroupPipeID(alice.PeerID(), "math")
	if _, err := h.br.Cache().Lookup(advert.TypePipe, alicePipe); err != nil {
		t.Fatalf("alice's pipe advertisement before the move: %v", err)
	}

	z.move(jump)

	for _, probe := range []struct {
		what  string
		moved func() error
	}{
		{"session identifier expiry", func() error {
			if err := bob.SecureLogin(ctx, "pw-bob"); !errors.Is(err, core.ErrLoginRejected) || !strings.Contains(err.Error(), proto.ErrBadSid) {
				return fmt.Errorf("login with a session identifier issued 20 minutes ago: %v", err)
			}
			return nil
		}},
		{"credentialed-request timestamp window", func() error {
			var opErr *client.OpError
			if err := alice.SecureHeartbeat(ctx); !errors.As(err, &opErr) || opErr.Token != proto.ErrBadRequest {
				return fmt.Errorf("heartbeat stamped 20 minutes behind the broker: %v", err)
			}
			return nil
		}},
		{"issued credential's window", func() error {
			c, err := h.brSec.IssueClientCredential("urn:jxta:someone", "someone", alice.Identity().Keys.Public())
			if err != nil {
				return err
			}
			if now := h.br.Now(); !near(c.NotBefore, now.Add(-time.Minute)) || !near(c.NotAfter, now.Add(core.DefaultCredValidity)) {
				return fmt.Errorf("credential runs %v to %v, broker's now %v", c.NotBefore, c.NotAfter, now)
			}
			return nil
		}},
		{"idempotency window", func() error {
			if err := create(); err == nil || h.br.Stats().IdemDeduped != 0 {
				return fmt.Errorf("a key acknowledged 20 minutes ago was answered from the window: %v", err)
			}
			return nil
		}},
		{"discovery-cache expiry", func() error {
			if _, err := h.br.Cache().Lookup(advert.TypePipe, alicePipe); !errors.Is(err, discovery.ErrNotFound) {
				return fmt.Errorf("pipe advertisement received 20 minutes ago: %v", err)
			}
			return nil
		}},
		{"inherited relay TTL", func() error {
			rly.Flush(away)
			if !waituntil.True(5*time.Second, func() bool { return rly.Metrics().Expired == 1 && rly.QueuedTotal() == 0 }) {
				return errors.New("a slice queued 20 minutes ago under a 5 minute TTL is still held")
			}
			return nil
		}},
		{"lease expiry", func() error {
			h.brSec.ExpireLapsedNow()
			if h.br.PeerOnline(alice.PeerID()) {
				return errors.New("a lease granted 20 minutes ago for 10 is still live")
			}
			return nil
		}},
	} {
		if err := probe.moved(); err != nil {
			t.Errorf("%s stayed behind the broker's clock: %v", probe.what, err)
		}
	}
}

func clientMovesAsOne(t *testing.T) {
	h := newSecureHarness(t, true)
	h.db.Register("carol", "pw-carol", "math")
	guarded := func() core.Option { return core.WithReplayGuard(core.NewReplayGuard(time.Minute, 64)) }
	// alice is the node under test. bob lives in her time — the two share a
	// clock — so that what she sends after a move can still be opened;
	// carol stays where the broker is.
	var z zone
	alice, bob, carol := h.secureClient("alice", guarded()), h.secureClient("bob", guarded()), h.secureClient("carol")
	alice.Endpoint().SetClock(z.now)
	bob.Endpoint().SetClock(z.now)
	h.join(alice, "pw-alice")
	h.join(bob, "pw-bob")
	h.join(carol, "pw-carol")
	reg := telemetry.New()
	alice.BindTelemetry(reg)
	atAlice, atBob := events.NewCollector(alice.Bus()), events.NewCollector(bob.Bus())
	channelUp(t, alice, bob, atBob)
	channelUp(t, carol, alice, atAlice)
	ctx := testCtx(t)

	// lastWire is the newest secure wire of the given mode seen on its way
	// to bob.
	var eve *attack.Eavesdropper
	lastWire := func(mode core.Mode) []byte {
		frames := eve.FramesTo(simnet.NodeID(bob.PeerID()))
		for i := len(frames) - 1; i >= 0; i-- {
			if f, err := endpoint.ParseFrame(frames[i]); err == nil {
				if wire, ok := f.Msg.Get(proto.ElemEnvelope); ok && core.Mode(wire[0]) == mode {
					return wire
				}
			}
		}
		return nil
	}

	// First move: past a channel's lifetime (10 min) and the guards' window.
	z.move(15 * time.Minute)
	eve = attack.NewEavesdropper(h.net)
	type probe struct {
		what  string
		moved func() error
	}
	run := func(probes []probe) {
		t.Helper()
		for _, p := range probes {
			if err := p.moved(); err != nil {
				t.Errorf("%s stayed behind alice's clock: %v", p.what, err)
			}
		}
	}
	run([]probe{
		{"channel retirement and the envelope's timestamp", func() error {
			// Her channel to bob is past its life, so the message is an
			// envelope; bob's guard, in her time, takes it only if it is
			// stamped there, and the wire says so itself.
			if e := sendAndWait(t, alice, bob, atBob, "after the move"); e.Attr("mode") != core.ModeFull.String() {
				return errors.New("a message on a channel 15 minutes old travelled as " + e.Attr("mode"))
			}
			o, err := core.Open(bob.Identity().Keys, lastWire(core.ModeFull))
			if err != nil {
				return err
			}
			if !near(o.SentAt, z.now()) {
				return fmt.Errorf("envelope stamped %v, alice's now %v", o.SentAt, z.now())
			}
			return nil
		}},
		{"a frame's timestamp", func() error {
			// The envelope offered a new channel; a frame on it passes bob's
			// guard only if it, too, is stamped in her time.
			if !waituntil.True(5*time.Second, func() bool { return core.ChannelTo(alice, bob.PeerID(), "math") }) {
				return errors.New("no channel agreed between two peers in one time")
			}
			if e := sendAndWait(t, alice, bob, atBob, "framed"); e.Attr("mode") != core.ModeChannel.String() {
				return errors.New("message on the new channel travelled as " + e.Attr("mode"))
			}
			return nil
		}},
		{"a round's timestamp", func() error {
			if _, err := alice.SecureMsgPeerGroup(ctx, "math", "to the group"); err != nil {
				return err
			}
			if !secureDelivered(atBob, "to the group") {
				return errors.New("bob's guard refused the round")
			}
			o, err := core.OpenSlice(bob.Identity().Keys, lastWire(core.ModeSlice), nil)
			if err != nil {
				return err
			}
			if !near(o.SentAt, z.now()) {
				return fmt.Errorf("round stamped %v, alice's now %v", o.SentAt, z.now())
			}
			return nil
		}},
		{"inbound channel lifetime and guard freshness", func() error {
			// carol, 15 minutes behind, still holds her channel to alice.
			// alice no longer does: she refuses the frame, and then the
			// envelope carol sends the message again in, which by alice's
			// clock is 15 minutes old.
			refusals := metric(t, reg, core.ChannelRefusalsSentMetric)
			if err := carol.SecureMsgPeer(ctx, alice.PeerID(), "math", "from the past"); err != nil {
				return err
			}
			e, ok := atAlice.WaitFor(events.SecurityAlert, 5*time.Second)
			if !ok || e.Payload["reason"] != core.ErrMessageStale.Error() {
				return errors.New("no stale-message alert for an envelope 15 minutes old: " + e.Payload["reason"])
			}
			if got := metric(t, reg, core.ChannelRefusalsSentMetric); got != refusals+1 {
				return errors.New("a frame on a channel 15 minutes old was not refused")
			}
			if len(delivered(atAlice, "from the past")) != 0 {
				return errors.New("a message 15 minutes old was delivered")
			}
			return nil
		}},
	})

	// Second move: past every credential's NotAfter. Nothing can be sent
	// from here on, which is why timestamps were looked at first.
	z.move(core.DefaultCredValidity + time.Hour)
	run([]probe{
		{"advertisement-verdict expiry", func() error {
			if err := alice.SecureMsgPeer(ctx, bob.PeerID(), "math", "too late"); !errors.Is(err, core.ErrPeerAdvInvalid) {
				return fmt.Errorf("send under a verdict whose chain ran out an hour ago: %v", err)
			}
			return nil
		}},
		{"the broker-credential check of secureConnection", func() error {
			if err := alice.SecureConnection(ctx, h.br.PeerID()); !errors.Is(err, core.ErrBrokerNotLegit) {
				return fmt.Errorf("secureConnection to a broker whose credential ran out an hour ago: %v", err)
			}
			return nil
		}},
	})
}
