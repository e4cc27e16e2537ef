package core_test

// Liveness tests: lease grant at secureLogin, heartbeat renewal,
// missed-heartbeat expiry, and the lease-expired refusal surfacing as
// ErrLeaseLost. Time is driven through the broker node's clock +
// ExpireLapsedNow, never wall-clock sleeps.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/proto"
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
	h := &leaseHarness{now: time.Now()}
	h.secureHarness = newSecureHarnessWith(t, core.BrokerConfig{RequireSignedAdvs: true, LeaseTTL: testLeaseTTL})
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

	// A sweep collected against the OLD session must not take the new
	// one down: the monotonic session guard in ExpirePeer.
	if h.br.ExpirePeer(sc.PeerID(), "lease-expired", time.Now().Add(-time.Hour)) {
		t.Fatal("stale expiry clobbered the newer session")
	}
	if !h.br.PeerOnline(sc.PeerID()) {
		t.Fatal("peer knocked offline by a stale expiry")
	}
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
