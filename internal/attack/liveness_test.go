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
//   - a forged or lagging peer-down describing an OLD session must not
//     clobber a newer live one (the monotonic session guard from the
//     federation work, now also carrying lease expiries).

import (
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
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
		resp, err := stranger.Request(ctx, s.br.PeerID(), proto.BrokerService, flood)
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

// Presence is monotonic in session-start time. A peer-down describing
// an OLD session — a forger outside the federation, or a lagging /
// compromised partner replaying history — must not take down the
// newer live session it races with.
func TestForgedStalePresenceCannotClobberNewerSession(t *testing.T) {
	s := newLeaseStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	stale := strconv.FormatInt(time.Now().Add(-time.Minute).UnixNano(), 10)
	peerDown := func() *endpoint.Message {
		return endpoint.NewMessage().
			AddString(proto.ElemOp, "fedPeerDown").
			AddString(proto.ElemPeer, string(alice.PeerID())).
			AddString(proto.ElemFedSession, stale)
	}

	// A non-partner forging federation presence is ignored outright.
	outsider, err := endpoint.NewService(s.net, "outsider-node")
	if err != nil {
		t.Fatal(err)
	}
	defer outsider.Close()
	if err := outsider.Send(s.br.PeerID(), proto.BrokerService, peerDown()); err != nil {
		t.Fatal(err)
	}

	// A real partner replaying alice's previous session is discarded by
	// the monotonic guard (and counted).
	partnerID := keys.LegacyPeerID("partner-broker")
	partner, err := endpoint.NewService(s.net, partnerID)
	if err != nil {
		t.Fatal(err)
	}
	defer partner.Close()
	s.br.Federate(partnerID)
	if err := partner.Send(s.br.PeerID(), proto.BrokerService, peerDown()); err != nil {
		t.Fatal(err)
	}
	waituntil.Must(t, 5*time.Second, func() bool {
		return s.br.Stats().FedStalePresence >= 1
	}, "stale partner peer-down never reached the monotonic guard")
	if !s.br.PeerOnline(alice.PeerID()) {
		t.Fatal("stale peer-down clobbered a live newer session")
	}

	// The same guard protects lease expiry: a sweep collected against a
	// session that has since re-logged-in must not land.
	if s.br.ExpirePeer(alice.PeerID(), "lease-expired", time.Now().Add(-time.Hour)) {
		t.Fatal("stale lease expiry took down a newer session")
	}
	if !s.br.PeerOnline(alice.PeerID()) {
		t.Fatal("peer offline after stale expiry")
	}
	if errors.Is(alice.SecureHeartbeat(testCtx(t)), core.ErrLeaseLost) {
		t.Fatal("live session lost its lease to stale presence replays")
	}
}
