package attack_test

// Liveness attack negatives (PR 10). The lease/heartbeat/idempotency
// machinery exists to keep sessions honest under churn, so each of its
// moving parts gets the adversarial treatment the rest of the suite
// gives the login and relay paths:
//
//   - a captured heartbeat, replayed, must not keep a dead session's
//     presence alive (the strictly-increasing sequence number);
//   - a captured idempotent mutation, replayed, must not execute twice
//     (the dedup window answers from cache), and another peer reusing
//     the same key must not be able to read the victim's cached
//     response (keys are namespaced per sender);
//   - presence ops from outside the broker (the removed broker-to-broker
//     ops, under any Src) are unknown ops, and a lapsed lease does not
//     clobber the newer session a re-login started.

import (
	"errors"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/waituntil"
)

const attackLeaseTTL = 30 * time.Second

// leaseStack is a secureStack with liveness enabled and a movable
// broker clock, so lease expiry is driven deterministically.
type leaseStack struct {
	*secureStack
	mu  sync.Mutex
	now time.Time
}

func newLeaseStack(t *testing.T) *leaseStack {
	t.Helper()
	s := &leaseStack{now: time.Now()}
	s.secureStack = newSecureStackWith(t, core.BrokerConfig{RequireSignedAdvs: true, LeaseTTL: attackLeaseTTL})
	s.br.Endpoint().SetClock(func() time.Time {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.now
	})
	return s
}

func (s *leaseStack) advance(d time.Duration) {
	s.mu.Lock()
	s.now = s.now.Add(d)
	s.mu.Unlock()
}

// A heartbeat captured off the wire and replayed carries an
// already-seen sequence number: the broker refuses it without touching
// the lease expiry, so an attacker holding a victim's heartbeat
// traffic cannot keep the dead session's presence alive (and collect
// its relayed slices, impersonate its availability, and so on).
func TestReplayedHeartbeatCannotKeepSessionAlive(t *testing.T) {
	s := newLeaseStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	brokerNode := simnet.NodeID(s.br.PeerID())

	// Eve starts capturing after login, so the captured frames are
	// exactly one genuine heartbeat exchange.
	eve := attack.NewEavesdropper(s.net)
	if err := alice.SecureHeartbeat(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if st := s.brSec.LivenessStats(); st.HeartbeatsRenewed != 1 {
		t.Fatalf("renewed = %d, want 1", st.HeartbeatsRenewed)
	}
	captured := eve.FramesTo(brokerNode)
	if len(captured) == 0 {
		t.Fatal("eavesdropper captured no heartbeat frames")
	}

	// Alice dies silently. The attacker keeps replaying her last
	// heartbeat: every copy is refused (same lease, same seq) and the
	// expiry stays where the genuine renewal left it.
	raw, err := attack.NewRawNode(s.net, "attacker-node")
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range captured {
		_ = raw.Replay(brokerNode, frame)
	}
	waituntil.Must(t, 5*time.Second, func() bool {
		return s.brSec.LivenessStats().HeartbeatsRejected >= 1
	}, "replayed heartbeat never refused")

	// One TTL later the lease lapses on schedule — the replays renewed
	// nothing — and the sweeper takes the session down.
	s.advance(attackLeaseTTL + time.Second)
	for _, frame := range captured {
		_ = raw.Replay(brokerNode, frame)
	}
	s.brSec.ExpireLapsedNow()
	if s.br.PeerOnline(alice.PeerID()) {
		t.Fatal("replayed heartbeats kept a dead session's presence alive")
	}
	st := s.brSec.LivenessStats()
	if st.HeartbeatsRenewed != 1 {
		t.Fatalf("replays renewed the lease: renewed = %d, want 1", st.HeartbeatsRenewed)
	}
	if st.LeasesExpired != 1 {
		t.Fatalf("LeasesExpired = %d, want 1", st.LeasesExpired)
	}
}

// A mutating request captured with its idempotency key and replayed
// verbatim is answered from the dedup window — it does not execute a
// second time. And the key namespace is per sender: another peer
// presenting the victim's key gets her own fresh execution (and its
// honest refusal), never the victim's cached response.
func TestReplayedIdempotencyKeyCannotDoubleExecute(t *testing.T) {
	s := newLeaseStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	mallory := s.join(t, "mallory", "mallory-pw")
	brokerNode := simnet.NodeID(s.br.PeerID())
	ctx := testCtx(t)

	eve := attack.NewEavesdropper(s.net)
	create := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpGroupCreate).
		AddString(proto.ElemGroup, "proj").
		AddString(proto.ElemDesc, "project").
		AddString(proto.ElemIdem, "ik-replay-1")
	if _, err := alice.Call(ctx, create); err != nil {
		t.Fatalf("first create: %v", err)
	}
	captured := eve.FramesTo(brokerNode)
	if len(captured) == 0 {
		t.Fatal("eavesdropper captured no frames")
	}

	// Replay the captured creation. The broker answers from the dedup
	// cache instead of re-running the handler.
	raw, err := attack.NewRawNode(s.net, "attacker-node")
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range captured {
		_ = raw.Replay(brokerNode, frame)
	}
	waituntil.Must(t, 5*time.Second, func() bool {
		return s.br.Stats().IdemDeduped >= 1
	}, "replayed idempotent request was not deduplicated")

	// Mallory presents alice's key under her own session: the cache
	// misses (keys are scoped to the sender), her create executes for
	// real, and she gets the honest group-exists refusal — not alice's
	// cached OK.
	steal := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpGroupCreate).
		AddString(proto.ElemGroup, "proj").
		AddString(proto.ElemDesc, "project").
		AddString(proto.ElemIdem, "ik-replay-1")
	if _, err := mallory.Call(ctx, steal); err == nil {
		t.Fatal("foreign idempotency key served the victim's cached response")
	}
}

// The dedup window belongs to logged-in peers. connect answers OK to
// anyone, so a stranger's keyed connects used to be cached: 4,096 of
// them filled the table, pinned it for the window and evicted honest
// peers' live entries, whose retries then re-executed. A stranger's
// keys are ignored — nothing stored, nothing evicted.
func TestStrangerCannotSeedIdempotencyWindow(t *testing.T) {
	s := newLeaseStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	ctx := testCtx(t)
	create := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpGroupCreate).
		AddString(proto.ElemGroup, "proj").
		AddString(proto.ElemDesc, "project").
		AddString(proto.ElemIdem, "ik-honest-1")
	if _, err := alice.Call(ctx, create); err != nil {
		t.Fatalf("first create: %v", err)
	}
	if n := s.br.IdemEntries(); n != 1 {
		t.Fatalf("IdemEntries = %d after one acknowledged keyed mutation, want 1", n)
	}

	stranger, err := endpoint.NewService(s.net, "urn:jxta:stranger")
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	for i := 0; i < 4096; i++ {
		flood := endpoint.NewMessage().
			AddString(proto.ElemOp, proto.OpConnect).
			AddString(proto.ElemIdem, "ik-flood-"+strconv.Itoa(i))
		resp, err := stranger.Request(ctx, s.br.PeerID(), proto.BrokerService, flood, 0)
		if err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
		if ok, tok := proto.IsOK(resp); !ok {
			t.Fatalf("connect %d refused (%s): the flood must be one the broker acknowledges", i, tok)
		}
	}
	if n := s.br.IdemEntries(); n != 1 {
		t.Fatalf("IdemEntries = %d after a stranger's 4,096 keyed connects, want alice's 1", n)
	}
	// Alice's retry is still answered from the window: a second
	// execution would be refused as group-exists.
	if _, err := alice.Call(ctx, create); err != nil {
		t.Fatalf("retry after the flood re-executed: %v", err)
	}
	if got := s.br.Stats().IdemDeduped; got != 1 {
		t.Fatalf("IdemDeduped = %d, want 1", got)
	}
}

// TestForgedStalePresenceCannotClobberNewerSession: a broker takes no
// other node's word for a peer's presence, advertisements or slices. The
// four ops brokers that federated once sent each other — fedPeerUp,
// fedPeerDown, fedAdv and fedRelaySlice — are unknown ops, whoever sends
// them: a stranger under its own ID, or a forger under the Src of a
// logged-in member. Each is answered unknown-op; alice stays online in
// her groups under her lease, and neither the relay queue nor the
// discovery cache moves. A later session is not clobbered by a lease
// that lapsed under the earlier one either.
func TestForgedStalePresenceCannotClobberNewerSession(t *testing.T) {
	s := newLeaseStack(t)
	rly, err := core.EnableBrokerRelay(s.br, core.RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rly.Close()
	alice := s.join(t, "alice", "alice-secret-pw")
	ctx := testCtx(t)
	victim := string(alice.PeerID())
	// Each op as its sender wrote it: a stale or future session start, a
	// presence advertisement saying alice left, a slice for her.
	stale := strconv.FormatInt(time.Now().Add(-time.Minute).UnixNano(), 10)
	future := strconv.FormatInt(time.Now().Add(time.Hour).UnixNano(), 10)
	removed := []struct {
		op  string
		msg func() *endpoint.Message
	}{
		{"fedPeerUp", func() *endpoint.Message {
			return endpoint.NewMessage().AddString(proto.ElemOp, "fedPeerUp").
				AddString(proto.ElemPeer, victim).AddString(proto.ElemUser, "alice").
				AddString(proto.ElemGroups, "").AddString("fed:session", future)
		}},
		{"fedPeerDown", func() *endpoint.Message {
			return endpoint.NewMessage().AddString(proto.ElemOp, "fedPeerDown").
				AddString(proto.ElemPeer, victim).AddString("fed:session", future)
		}},
		{"fedAdv", func() *endpoint.Message {
			return endpoint.NewMessage().AddString(proto.ElemOp, "fedAdv").
				AddString(proto.ElemPeer, victim).
				Add(proto.ElemAdv, attack.ForgePresence(alice.PeerID(), "alice", "math", "offline").Canonical())
		}},
		{"fedRelaySlice", func() *endpoint.Message {
			return endpoint.NewMessage().AddString(proto.ElemOp, "fedRelaySlice").
				AddString("relay:to", victim).AddString(proto.ElemPeer, "urn:jxta:forger").
				AddString(proto.ElemGroup, "math").AddString("relay:exp", stale).
				Add(proto.ElemEnvelope, []byte("forged slice"))
		}},
	}

	before, _ := s.br.Peer(alice.PeerID())
	cached, queued, relayed := s.br.Cache().Len(), rly.QueuedTotal(), rly.Metrics()

	stranger, err := endpoint.NewService(s.net, "stranger-node")
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	forger, err := attack.NewRawNode(s.net, "forger-node")
	if err != nil {
		t.Fatal(err)
	}
	eve := attack.NewEavesdropper(s.net)
	// refusedUnderAlice reports whether the broker answered the request
	// correlated by id, sent under alice's Src and so answered to her
	// node, unknown-op.
	refusedUnderAlice := func(id []byte) bool {
		for _, frame := range eve.FramesTo(simnet.NodeID(alice.PeerID())) {
			if f, err := endpoint.ParseFrame(frame); err == nil && string(f.CorrID) == string(id) {
				ok, tok := proto.IsOK(f.Msg)
				return !ok && tok == proto.ErrUnknownOp
			}
		}
		return false
	}
	for _, r := range removed {
		op, msg := r.op, r.msg
		resp, err := stranger.Request(ctx, s.br.PeerID(), proto.BrokerService, msg(), 2*time.Second)
		if err != nil {
			t.Fatalf("%s from a stranger: %v (the broker must answer it)", op, err)
		}
		if ok, tok := proto.IsOK(resp); ok || tok != proto.ErrUnknownOp {
			t.Fatalf("%s from a stranger answered ok=%v %q, want %q", op, ok, tok, proto.ErrUnknownOp)
		}
		id := []byte("forged-" + op)
		frame := endpoint.NewFrame(endpoint.Route{Src: alice.PeerID(), Service: proto.BrokerService, Corr: endpoint.CorrRequest, CorrID: id},
			msg().Elements...)
		if err := forger.Replay(simnet.NodeID(s.br.PeerID()), frame); err != nil {
			t.Fatal(err)
		}
		waituntil.Must(t, 5*time.Second, func() bool { return refusedUnderAlice(id) },
			op+" under alice's Src was not answered unknown-op")
	}

	after, _ := s.br.Peer(alice.PeerID())
	if !after.Online || !after.ConnectedAt.Equal(before.ConnectedAt) || !slices.Equal(after.Groups, before.Groups) {
		t.Fatalf("alice's record went from %+v to %+v", before, after)
	}
	if err := alice.SecureHeartbeat(ctx); err != nil {
		t.Fatalf("alice's lease after the removed ops: %v", err)
	}
	if got := s.br.Cache().Len(); got != cached {
		t.Fatalf("discovery cache holds %d records, %d before", got, cached)
	}
	if got, m := rly.QueuedTotal(), rly.Metrics(); got != queued || m.Enqueued != relayed.Enqueued || m.DeliveredDirect != relayed.DeliveredDirect {
		t.Fatalf("relay moved: %d queued (%d before), metrics %+v (%+v before)", got, queued, m, relayed)
	}

	// Lease expiry needs no guard: the lease is the session's. Alice's
	// lease lapses and she logs in again before the sweep, which then
	// finds the newer session's lease, not the lapsed one.
	s.advance(attackLeaseTTL + time.Second)
	if err := alice.Join(testCtx(t), s.br.PeerID(), "alice-secret-pw"); err != nil {
		t.Fatal(err)
	}
	s.brSec.ExpireLapsedNow()
	if !s.br.PeerOnline(alice.PeerID()) {
		t.Fatal("a sweep after the re-login took the newer session down")
	}
	if st := s.brSec.LivenessStats(); st.LeasesExpired != 0 {
		t.Fatalf("LeasesExpired = %d, want 0", st.LeasesExpired)
	}
	if errors.Is(alice.SecureHeartbeat(testCtx(t)), core.ErrLeaseLost) {
		t.Fatal("the newer session lost its lease to the lapsed one")
	}
}
