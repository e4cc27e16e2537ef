package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
)

// arrivals counts SecureMessage events on a set of peers and lets a
// measurement wait for them.
type arrivals struct {
	mu    sync.Mutex
	n     int
	times []time.Time
	wake  chan struct{}
}

func watchArrivals(peers ...*peer) *arrivals {
	a := &arrivals{wake: make(chan struct{}, 1)}
	for _, p := range peers {
		p.sc.Bus().Subscribe(events.SecureMessage, func(events.Event) {
			a.mu.Lock()
			a.n++
			a.times = append(a.times, time.Now())
			a.mu.Unlock()
			select {
			case a.wake <- struct{}{}:
			default:
			}
		})
	}
	return a
}

func (a *arrivals) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// await blocks until n events have arrived in total.
func (a *arrivals) await(n int) {
	deadline := time.After(opTimeout)
	for a.count() < n {
		select {
		case <-a.wake:
		case <-deadline:
			check(fmt.Errorf("per-layer pass: %d of %d deliveries arrived", a.count(), n))
		}
	}
}

// liveCalls times the client's and the broker's calls on the rig, where
// every call does its real work: recipients open what is sent, the
// broker verifies, slices and pushes.
func (l *layerRun) liveCalls(rig *built) {
	m := l.m
	g := rig.wl.(*groupRelay)
	sender, rcpt := g.peers[0], g.peers[1]
	seen := watchArrivals(g.peers[1:]...)
	ctx := l.ctx
	n := l.layerOps()
	rounds := min(n, scaled(l.cfg, 40)) // a relayed round costs ten unicasts

	// client: the sender's side of one message, waiting for the
	// delivery between calls so that no call competes with the last.
	// The plain deployment's message and join alternate with the secure
	// ones, so that the paper's two ratios compare like minutes with like.
	plain := l.newPlainRig()
	defer plain.close()
	plain.send(ctx, l.body)
	var sendCall, secureMsg, plainMsg, relayCall, roundRTT []time.Duration
	base := seen.count()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		check(sender.sc.SecureMsgPeer(ctx, rcpt.id(), benchGroup, l.body))
		sendCall = append(sendCall, time.Since(t0))
		base++
		seen.await(base)
		secureMsg = append(secureMsg, time.Since(t0))
		t0 = time.Now()
		plain.send(ctx, l.body)
		plainMsg = append(plainMsg, time.Since(t0))
	}
	m["substrate.plain_msg_us"] = medianDuration(plainMsg) / 1e3
	m["substrate.secure_over_plain_x"] = ratio(medianDuration(secureMsg), medianDuration(plainMsg))
	m["substrate.plain_allocs"], _ = allocsOf(n, func() { plain.send(ctx, l.body) })
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		direct, _, err := sender.sc.SecureMsgPeerGroupRelay(ctx, benchGroup, l.round)
		check(err)
		relayCall = append(relayCall, time.Since(t0))
		base += direct
		seen.await(base)
	}
	m["client.send_call_us"] = medianDuration(sendCall) / 1e3
	m["client.relay_call_us"] = medianDuration(relayCall) / 1e3

	// broker: round trips of single operations.
	call := func(msg *endpoint.Message) {
		_, err := sender.sc.Call(ctx, msg)
		check(err)
	}
	m["broker.noop_rtt_us"] = timeIt(scaled(l.cfg, 300), func() {
		call(endpoint.NewMessage().AddString(proto.ElemOp, proto.OpConnect))
	})
	m["broker.lookup_pipe_rtt_us"] = timeIt(scaled(l.cfg, 300), func() {
		call(endpoint.NewMessage().AddString(proto.ElemOp, proto.OpLookupPipe).
			AddString(proto.ElemPeer, string(rcpt.id())).AddString(proto.ElemGroup, benchGroup))
	})
	adv, ok := sender.sc.Control().GroupPipeAdv(benchGroup)
	if !ok {
		check(fmt.Errorf("rig sender has no pipe in %s", benchGroup))
	}
	m["broker.publish_adv_rtt_us"] = timeIt(scaled(l.cfg, 40), func() { check(sender.sc.PublishAdv(ctx, adv)) })

	// The relay round, taken apart: the roster call, then a round sealed
	// beforehand and uploaded with nothing else in the timing.
	ids := make([]string, 0, len(g.peers)-1)
	var rcptKeys []*keys.PublicKey
	for _, p := range g.peers[1:] {
		ids = append(ids, string(p.id()))
		rcptKeys = append(rcptKeys, p.kp.Public())
	}
	for i := 0; i < rounds; i++ {
		d := must(core.SealGroupDetached(sender.kp, sender.id(), benchGroup, []byte(l.round), rcptKeys))
		msg := endpoint.NewMessage().
			AddString(proto.ElemOp, proto.OpRelayRound).
			AddString(proto.ElemGroup, benchGroup).
			AddString(proto.ElemRecipients, strings.Join(ids, ",")).
			Add(proto.ElemEnvelope, d.Wire())
		t0 := time.Now()
		call(msg)
		roundRTT = append(roundRTT, time.Since(t0))
		base += len(ids)
		seen.await(base)
	}
	rtt := medianDuration(roundRTT) / 1e3
	m["broker.relay_round_rtt_us"] = rtt
	// What the upload costs beyond an empty round trip, less what its
	// visible parts cost when called alone: that is the broker's own.
	parts := m["core.slice_round_us"] + float64(len(ids))*m["relay.submit_direct_us"]
	m["broker.relay_round_self_us"] = max(0, rtt-m["broker.noop_rtt_us"]-parts)

	// brokersec: one member leaves and joins again, over and over, with
	// the other 16 online to receive its presence.
	member := g.peers[len(g.peers)-1]
	var connect, login, logout, secureJoin, plainJoin []time.Duration
	for i := 0; i < scaled(l.cfg, 24); i++ {
		t0 := time.Now()
		check(member.sc.Logout(ctx))
		t1 := time.Now()
		check(member.sc.SecureConnection(ctx, rig.env.br.PeerID()))
		t2 := time.Now()
		check(member.sc.SecureLogin(ctx, peerPassword(member.alias)))
		t3 := time.Now()
		logout, connect, login = append(logout, t1.Sub(t0)), append(connect, t2.Sub(t1)), append(login, t3.Sub(t2))
		secureJoin = append(secureJoin, t3.Sub(t1))
		plainJoin = append(plainJoin, plain.rejoin(ctx))
	}
	// The paper's headline: what a secure join costs over a plain one
	// (81.76 % on its testbed, where the wire counted too).
	m["brokersec.join_over_plain_pct"] = (ratio(medianDuration(secureJoin), medianDuration(plainJoin)) - 1) * 100
	m["brokersec.logout_us"] = medianDuration(logout) / 1e3
	m["brokersec.connect_us"] = medianDuration(connect) / 1e3
	m["brokersec.login_us"] = medianDuration(login) / 1e3
	// A client boots and goes away again, on an identity the rig does
	// not otherwise use.
	spare := peerAlias(fixturePeers - 1)
	spareKey := must(loadKey(spare))
	m["client.new_close_us"] = timeIt(scaled(l.cfg, 40), func() {
		p := must(rig.env.newPeer(spare, spareKey))
		p.sc.Close()
	})

	// relay, live: the member logs out, rounds queue for it, it comes
	// back; the flush is timed at the recipient.
	check(member.sc.Logout(ctx))
	mine := watchArrivals(member)
	rounds = scaled(l.cfg, 24)
	for i := 0; i < rounds; i++ {
		// (queued is 1, or 2 once the join chain's identity has been a
		// member and left; only this member's slices are awaited.)
		direct, queued, err := sender.sc.SecureMsgPeerGroupRelay(ctx, benchGroup, l.round)
		check(err)
		if queued < 1 {
			check(fmt.Errorf("drain probe: round queued %d slices, want at least 1", queued))
		}
		base += direct
		seen.await(base)
	}
	t0 := time.Now()
	check(rig.env.join(ctx, member))
	mine.await(rounds)
	mine.mu.Lock()
	first, last := mine.times[0], mine.times[rounds-1]
	mine.mu.Unlock()
	m["relay.login_to_first_slice_us"] = float64(first.Sub(t0).Microseconds())
	m["relay.drain_us_per_slice"] = float64(last.Sub(first).Microseconds()) / float64(max(rounds-1, 1))
}

// plainRig is the deployment the paper compares against: no security
// extension, plain login, plain messages, the same 17 members.
type plainRig struct {
	net     *simnet.Network
	br      *broker.Broker
	clients []*client.Client
	got     chan struct{}
}

func (l *layerRun) newPlainRig() *plainRig {
	r := &plainRig{net: simnet.NewNetworkSeeded(simnet.ProfileLocal, l.cfg.seed), got: make(chan struct{}, 1)}
	db := userdb.NewStore()
	r.br = must(broker.New(broker.Config{
		Name: "plain-broker", PeerID: keys.LegacyPeerID("plain-broker"), Net: r.net,
		DB: broker.AuthenticatorFunc(func(_ context.Context, u, p string) ([]string, error) { return db.Authenticate(u, p) }),
	}))
	for i := 0; i < groupPeers; i++ {
		alias := peerAlias(i)
		check(db.Register(alias, peerPassword(alias), benchGroup))
		cl := must(client.New(r.net, membership.NewNone(), alias))
		r.clients = append(r.clients, cl)
		check(cl.Connect(l.ctx, r.br.PeerID()))
		check(cl.Login(l.ctx, peerPassword(alias)))
	}
	r.clients[1].Bus().Subscribe(events.MessageReceived, func(events.Event) { r.got <- struct{}{} })
	return r
}

func (r *plainRig) close() {
	for _, cl := range r.clients {
		cl.Close()
	}
	r.br.Close()
	r.net.Close()
}

// send is one plain message, first member to second, delivered.
func (r *plainRig) send(ctx context.Context, body string) {
	check(r.clients[0].SendMsgPeer(ctx, r.clients[1].PeerID(), benchGroup, body))
	<-r.got
}

// rejoin logs the last member out and times its plain join.
func (r *plainRig) rejoin(ctx context.Context) time.Duration {
	member := r.clients[len(r.clients)-1]
	check(member.Logout(ctx))
	t0 := time.Now()
	check(member.Connect(ctx, r.br.PeerID()))
	check(member.Login(ctx, peerPassword(member.Username())))
	return time.Since(t0)
}
