package core_test

// Liveness tests: lease grant at secureLogin, heartbeat renewal,
// missed-heartbeat expiry, and the lease-expired refusal surfacing as
// ErrLeaseLost. Time is driven through the broker node's clock +
// ExpireLapsedNow, never wall-clock sleeps.

import (
	"errors"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/waituntil"
)

// leaseHarness is a secureHarness with liveness enabled and a movable
// broker clock.
type leaseHarness struct {
	*secureHarness
	mu  sync.Mutex
	now time.Time
}

const testLeaseTTL = 30 * time.Second

func newLeaseHarness(t *testing.T) *leaseHarness {
	t.Helper()
	return newLeaseHarnessTTL(t, testLeaseTTL)
}

// newLeaseHarnessTTL is newLeaseHarness with leases of ttl: a short one
// has the client's heartbeat loop tick within a test, while the broker's
// clock, and so every lease deadline, moves only when the test moves it.
func newLeaseHarnessTTL(t *testing.T, ttl time.Duration) *leaseHarness {
	t.Helper()
	h := &leaseHarness{now: time.Now()}
	h.secureHarness = newSecureHarnessWith(t, core.BrokerConfig{RequireSignedAdvs: true, LeaseTTL: ttl})
	h.br.Endpoint().SetClock(h.clock)
	return h
}

func (h *leaseHarness) clock() time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.now
}

func (h *leaseHarness) advance(d time.Duration) {
	h.mu.Lock()
	h.now = h.now.Add(d)
	h.mu.Unlock()
}

func TestSecureLoginGrantsLease(t *testing.T) {
	h := newLeaseHarness(t)
	sc := h.secureClient("alice")
	h.join(sc, "pw-alice")

	leaseID, ttl := sc.Lease()
	if leaseID == "" {
		t.Fatal("secureLogin granted no lease with LeaseTTL configured")
	}
	if ttl != testLeaseTTL {
		t.Fatalf("lease TTL = %v, want %v", ttl, testLeaseTTL)
	}
	if got := h.brSec.Leases(); got != 1 {
		t.Fatalf("broker holds %d leases, want 1", got)
	}
	if st := h.brSec.LivenessStats(); st.LeasesGranted != 1 {
		t.Fatalf("LeasesGranted = %d, want 1", st.LeasesGranted)
	}
}

func TestHeartbeatRenewsLease(t *testing.T) {
	h := newLeaseHarness(t)
	sc := h.secureClient("alice")
	h.join(sc, "pw-alice")
	ctx := testCtx(t)

	// Walk several TTLs forward, heartbeating just before each expiry:
	// the session must stay up the whole way.
	for i := 0; i < 4; i++ {
		h.advance(testLeaseTTL - time.Second)
		if err := sc.SecureHeartbeat(ctx); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
		h.brSec.ExpireLapsedNow()
		if !h.br.PeerOnline(sc.PeerID()) {
			t.Fatalf("renewed session went down at step %d", i)
		}
	}
	if st := h.brSec.LivenessStats(); st.HeartbeatsRenewed != 4 || st.LeasesExpired != 0 {
		t.Fatalf("stats = %+v, want 4 renewed / 0 expired", st)
	}
}

func TestMissedHeartbeatsExpirePresence(t *testing.T) {
	h := newLeaseHarness(t)
	sc := h.secureClient("alice")
	h.join(sc, "pw-alice")

	if !h.br.PeerOnline(sc.PeerID()) {
		t.Fatal("peer not online after login")
	}
	h.advance(testLeaseTTL + time.Second)
	h.brSec.ExpireLapsedNow()
	if h.br.PeerOnline(sc.PeerID()) {
		t.Fatal("silent session still online past its lease")
	}
	if st := h.brSec.LivenessStats(); st.LeasesExpired != 1 {
		t.Fatalf("LeasesExpired = %d, want 1", st.LeasesExpired)
	}
	if h.brSec.Leases() != 0 {
		t.Fatal("expired lease still held")
	}

	// The dead session's next heartbeat is refused with lease-expired,
	// surfaced to callers as ErrLeaseLost (resume, don't retry).
	if err := sc.SecureHeartbeat(testCtx(t)); !errors.Is(err, core.ErrLeaseLost) {
		t.Fatalf("heartbeat after expiry = %v, want ErrLeaseLost", err)
	}
}

func TestReloginAfterExpiryGrantsFreshLease(t *testing.T) {
	h := newLeaseHarness(t)
	sc := h.secureClient("alice")
	h.join(sc, "pw-alice")
	first, _ := sc.Lease()

	h.advance(testLeaseTTL + time.Second)
	h.brSec.ExpireLapsedNow()

	// Full re-login (fresh sid) mints a fresh lease under the same peer.
	h.join(sc, "pw-alice")
	second, _ := sc.Lease()
	if second == "" || second == first {
		t.Fatalf("re-login lease = %q (first %q), want a fresh id", second, first)
	}
	if !h.br.PeerOnline(sc.PeerID()) {
		t.Fatal("peer not online after re-login")
	}

	// The new lease lapses too, but the peer logs in again before the
	// sweep: the sweep finds the newer session's lease, not the lapsed
	// one, and leaves it online.
	h.advance(testLeaseTTL + time.Second)
	h.join(sc, "pw-alice")
	h.brSec.ExpireLapsedNow()
	if !h.br.PeerOnline(sc.PeerID()) {
		t.Fatal("a sweep after the re-login took the newer session down")
	}
	if st := h.brSec.LivenessStats(); st.LeasesExpired != 1 {
		t.Fatalf("LeasesExpired = %d, want the first session's 1", st.LeasesExpired)
	}
}

// A logout ends the session's lease with it: the broker holds no lease
// for an offline peer, and the logged-out session's next heartbeat is
// refused lease-expired instead of renewing it.
func TestLogoutEndsLease(t *testing.T) {
	h := newLeaseHarness(t)
	sc := h.secureClient("alice")
	h.join(sc, "pw-alice")
	if err := sc.Logout(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if got := h.brSec.Leases(); got != 0 {
		t.Fatalf("broker holds %d leases after the logout, want 0", got)
	}
	if err := sc.SecureHeartbeat(testCtx(t)); !errors.Is(err, core.ErrLeaseLost) {
		t.Fatalf("heartbeat after logout = %v, want ErrLeaseLost", err)
	}
	if st := h.brSec.LivenessStats(); st.HeartbeatsRenewed != 0 {
		t.Fatalf("HeartbeatsRenewed = %d after the logout, want 0", st.HeartbeatsRenewed)
	}
}

// A resilient client's logout stays a logout: its heartbeat loop stops
// first, so no lease-lost heartbeat turns it into a resume, and the sweep
// finds no lease of it to expire.
func TestResilientLogoutStaysLoggedOut(t *testing.T) {
	const ttl = 60 * time.Millisecond
	h := newLeaseHarnessTTL(t, ttl)
	sc := h.secureClient("alice")
	rc := core.NewResilientClient(sc, h.br.PeerID(), "pw-alice")
	if err := rc.Connect(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	waituntil.Must(t, 5*time.Second, func() bool { return rc.Stats().HeartbeatsSent > 0 }, "the heartbeat loop never ran")
	if err := rc.Logout(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	sent := rc.Stats().HeartbeatsSent
	time.Sleep(3 * ttl) // the loop, had it kept running, would have beaten twice
	h.advance(ttl + time.Second)
	h.brSec.ExpireLapsedNow()
	if h.br.PeerOnline(rc.PeerID()) {
		t.Fatal("the logged-out peer is online again")
	}
	if st := rc.Stats(); st.Resumes != 0 || st.HeartbeatsSent != sent {
		t.Fatalf("stats = %+v after the logout, want no resume and %d heartbeats", st, sent)
	}
	if st := h.brSec.LivenessStats(); st.LeasesExpired != 0 {
		t.Fatalf("LeasesExpired = %d, want 0: the logout ended the lease", st.LeasesExpired)
	}
}

// A lease expiry racing a re-login resolves in favour of the newer
// session: the sweeper ends a lapsed session in one pass under the lock
// that writes records, so a login that lands after it finds the record
// offline and replaces it whole, groups included. The test re-logs a peer
// in with a 1 ms lease beside the real sweeper and checks, after each
// login, that an online session's record names every group it logged in
// with (a peer is a live member of the groups its online record names);
// it logs in again the moment the sweeper has taken the last session
// offline, while that session's teardown runs.
func TestExpiryRacingReloginKeepsGroups(t *testing.T) {
	h := newSecureHarnessWith(t, core.BrokerConfig{LeaseTTL: time.Millisecond})
	const peer keys.PeerID = "urn:jxta:cbid-racer"
	groups := []string{"math", "physics"}
	logins := 0
	for end := time.Now().Add(3 * time.Second); time.Now().Before(end); logins++ {
		h.br.RegisterLeasedPeer(peer, "racer", groups, broker.Lease{ID: "ls-" + strconv.Itoa(logins), TTL: time.Millisecond})
		info, _ := h.br.Peer(peer)
		if !info.Online {
			continue
		}
		if !slices.Equal(info.Groups, groups) {
			t.Fatalf("login %d: online with record groups %v, want %v", logins, info.Groups, groups)
		}
		// Wait for the sweeper to take the lapsed session offline, and
		// log in again the moment it has: inside its teardown.
		for wait := time.Now().Add(50 * time.Millisecond); time.Now().Before(wait); runtime.Gosched() {
			if info, _ := h.br.Peer(peer); !info.Online {
				break
			}
		}
	}
	t.Logf("%d logins", logins)
}

func TestHeartbeatWithoutLeaseErrs(t *testing.T) {
	// A broker without liveness grants no lease; the client's heartbeat
	// fails fast with ErrNoLease rather than sending anything.
	h := newSecureHarness(t, true)
	sc := h.secureClient("alice")
	h.join(sc, "pw-alice")
	if id, ttl := sc.Lease(); id != "" || ttl != 0 {
		t.Fatalf("lease granted (%q, %v) with liveness disabled", id, ttl)
	}
	if err := sc.SecureHeartbeat(testCtx(t)); !errors.Is(err, core.ErrNoLease) {
		t.Fatalf("heartbeat = %v, want ErrNoLease", err)
	}
}

func TestIdempotentRetryDedup(t *testing.T) {
	// The same mutating request presented twice under one idempotency
	// key executes once: the second submission is answered from the
	// dedup window (the ambiguous-timeout retry case).
	h := newLeaseHarness(t)
	sc := h.secureClient("alice")
	h.join(sc, "pw-alice")
	ctx := testCtx(t)

	mkReq := func() *endpoint.Message {
		return endpoint.NewMessage().
			AddString(proto.ElemOp, proto.OpGroupCreate).
			AddString(proto.ElemGroup, "proj").
			AddString(proto.ElemDesc, "project").
			AddString(proto.ElemIdem, "ik-test-1")
	}
	if _, err := sc.Call(ctx, mkReq()); err != nil {
		t.Fatalf("first create: %v", err)
	}
	// Without the key this retry would fail with group-exists; with it,
	// the cached OK comes back.
	if _, err := sc.Call(ctx, mkReq()); err != nil {
		t.Fatalf("idempotent retry: %v", err)
	}
	if got := h.br.Stats().IdemDeduped; got != 1 {
		t.Fatalf("IdemDeduped = %d, want 1", got)
	}

	// A DIFFERENT key re-executes and gets the real refusal.
	fresh := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpGroupCreate).
		AddString(proto.ElemGroup, "proj").
		AddString(proto.ElemDesc, "project").
		AddString(proto.ElemIdem, "ik-test-2")
	if _, err := sc.Call(ctx, fresh); err == nil {
		t.Fatal("duplicate create under a fresh key did not fail")
	}
}

// TestBareOKSurvivesJoinCycle: the broker answers a publish, a group's
// create, join and leave, a heartbeat and a logout with proto.BareOK, one
// response every caller is handed. Two join cycles through all of them
// leave it as it was built: one element, ok=1.
func TestBareOKSurvivesJoinCycle(t *testing.T) {
	h := newLeaseHarness(t)
	ctx := testCtx(t)
	shared := proto.BareOK()
	for round := range 2 {
		sc := h.secureClient("alice")
		h.join(sc, "pw-alice")
		group := "chess-" + strconv.Itoa(round)
		if err := sc.SecureHeartbeat(ctx); err != nil {
			t.Fatalf("round %d: heartbeat: %v", round, err)
		}
		if err := sc.CreateGroup(ctx, group, ""); err != nil {
			t.Fatalf("round %d: create: %v", round, err)
		}
		if err := sc.JoinGroup(ctx, group); err != nil {
			t.Fatalf("round %d: join: %v", round, err)
		}
		if err := sc.LeaveGroup(ctx, group); err != nil {
			t.Fatalf("round %d: leave: %v", round, err)
		}
		if err := sc.Logout(ctx); err != nil {
			t.Fatalf("round %d: logout: %v", round, err)
		}
	}
	if proto.BareOK() != shared || len(shared.Elements) != 1 {
		t.Fatalf("the shared response is now %+v", proto.BareOK().Elements)
	}
	if e := shared.Elements[0]; e.Name != proto.ElemOK || string(e.Data) != "1" {
		t.Fatalf("the shared response's element is %q=%q", e.Name, e.Data)
	}
}
