package core

// Presence leases and the signed heartbeat primitive. secureLogin
// grants the session a lease (BrokerConfig.LeaseTTL); a lightweight
// signed heartbeat renews it; a session that stops heartbeating —
// crashed process, partitioned link, half-open connection — has its
// lease lapse, at which point the sweeper takes its presence down
// (audited peer-down "lease-expired") and the relay flips from live
// push to queueing. Without leases a silently dead peer black-holes
// delivery: the broker keeps pushing into a session nobody reads.
//
// The heartbeat follows the secureRenew template (§6: new primitives
// reuse the extension's building blocks): a signed body carrying the
// session credential, verified for own-issuance, key possession, CBID
// binding and timestamp freshness. On top of that it binds two
// liveness-specific fields:
//
//   - the lease identifier minted at login — a heartbeat captured in
//     one session cannot renew a different (stolen or later) session,
//     because re-login mints a fresh lease id;
//   - a strictly increasing sequence number — a replayed heartbeat
//     (same lease, same seq) is refused and renews nothing.

import (
	"context"
	"encoding/hex"
	"errors"
	"strconv"
	"time"

	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/xmldoc"
)

// OpHeartbeat is the broker operation renewing a presence lease.
const OpHeartbeat = "heartbeat"

// ErrNoLease is returned by SecureHeartbeat when the login granted no
// lease (the broker runs without liveness).
var ErrNoLease = errors.New("core: broker granted no presence lease")

// ErrLeaseLost is returned when the broker refused the heartbeat with
// lease-expired: the session is gone and must be re-established.
var ErrLeaseLost = errors.New("core: presence lease lost")

// lease is one session's liveness record.
type lease struct {
	id     string
	seq    uint64 // highest heartbeat sequence accepted
	expiry time.Time
	// session is the ConnectedAt of the session the lease belongs to:
	// the monotonic-guard key handed to Broker.ExpirePeer so a stale
	// expiry can never take down a newer session.
	session time.Time
}

// grantLease mints a presence lease for a freshly registered session.
// Returns ok=false when leases are disabled.
func (bs *BrokerSecurity) grantLease(peer keys.PeerID) (string, time.Duration, bool) {
	if bs.cfg.LeaseTTL <= 0 {
		return "", 0, false
	}
	idBytes, err := keys.RandomBytes(16)
	if err != nil {
		return "", 0, false
	}
	id := "ls-" + hex.EncodeToString(idBytes)
	now := bs.b.Now()
	session := now
	if info, ok := bs.b.Peer(peer); ok {
		session = info.ConnectedAt
	}
	bs.mu.Lock()
	bs.leases[peer] = &lease{id: id, expiry: now.Add(bs.cfg.LeaseTTL), session: session}
	bs.mu.Unlock()
	bs.leasesGranted.Add(1)
	return id, bs.cfg.LeaseTTL, true
}

// renewLease is the heartbeat's bookkeeping hot path: one mutex-guarded
// table lookup, the lease/seq checks, and an expiry bump. Zero
// allocations steady-state (TestGateLeaseRenew); the RSA work lives in the
// caller. Returns the refusal token ("" = renewed).
func (bs *BrokerSecurity) renewLease(peer keys.PeerID, leaseID string, seq uint64, now time.Time) string {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	l, ok := bs.leases[peer]
	if !ok || l.id != leaseID || now.After(l.expiry) {
		return proto.ErrLeaseExpired
	}
	if seq <= l.seq {
		// A replayed (or reordered-stale) heartbeat: refuse without
		// touching the expiry, so captured heartbeats cannot keep a
		// dead session's presence alive.
		return proto.ErrBadRequest
	}
	l.seq = seq
	l.expiry = now.Add(bs.cfg.LeaseTTL)
	return ""
}

// Leases reports how many presence leases are live (telemetry gauge).
func (bs *BrokerSecurity) Leases() int {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return len(bs.leases)
}

// LivenessStats is a snapshot of the lease/heartbeat counters.
type LivenessStats struct {
	LeasesGranted      uint64
	LeasesExpired      uint64
	HeartbeatsRenewed  uint64
	HeartbeatsRejected uint64
}

// LivenessStats returns the liveness counter snapshot.
func (bs *BrokerSecurity) LivenessStats() LivenessStats {
	return LivenessStats{
		LeasesGranted:      bs.leasesGranted.Load(),
		LeasesExpired:      bs.leasesExpired.Load(),
		HeartbeatsRenewed:  bs.heartbeatsRenewed.Load(),
		HeartbeatsRejected: bs.heartbeatsRejected.Load(),
	}
}

// sweepLeases expires lapsed leases until Close. The cadence is a
// quarter of the TTL: a dead session is detected at most 1.25 TTLs
// after its last heartbeat.
func (bs *BrokerSecurity) sweepLeases() {
	defer close(bs.sweepDone)
	interval := bs.cfg.LeaseTTL / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-bs.sweepStop:
			return
		case <-ticker.C:
			bs.expireLapsed()
		}
	}
}

// expireLapsed collects lapsed leases and takes their sessions'
// presence down. The peer-down runs outside the extension lock (it
// fans out presence advertisements); the monotonic session key makes
// that safe — a re-login that slips between collection and expiry
// has a newer ConnectedAt and is left untouched by ExpirePeer.
func (bs *BrokerSecurity) expireLapsed() {
	type lapsed struct {
		peer    keys.PeerID
		id      string
		session time.Time
	}
	var out []lapsed
	now := bs.b.Now()
	bs.mu.Lock()
	for peer, l := range bs.leases {
		if now.After(l.expiry) {
			out = append(out, lapsed{peer: peer, id: l.id, session: l.session})
			delete(bs.leases, peer)
		}
	}
	bs.mu.Unlock()
	for _, l := range out {
		bs.leasesExpired.Add(1)
		if bs.b.ExpirePeer(l.peer, "lease-expired", l.session) {
			bs.auditAuth(audit.KindHeartbeat, l.peer, OpHeartbeat, proto.ErrLeaseExpired)
		}
	}
}

// ExpireLapsedNow runs one sweep pass synchronously (tests drive the
// broker's clock past the TTL and call this instead of sleeping).
func (bs *BrokerSecurity) ExpireLapsedNow() { bs.expireLapsed() }

// SecureHeartbeat renews the presence lease granted at SecureLogin.
// Returns ErrLeaseLost when the broker no longer holds the lease (the
// session expired or was superseded) — the caller must re-establish
// the session, not retry the heartbeat.
func (s *SecureClient) SecureHeartbeat(ctx context.Context) error {
	if own, _ := s.credentials(); own == nil {
		return ErrNoCredential
	}
	s.mu.Lock()
	leaseID := s.leaseID
	s.hbSeq++
	seq := s.hbSeq
	s.mu.Unlock()
	if leaseID == "" {
		return ErrNoLease
	}
	doc := xmldoc.New("HeartbeatRequest", "")
	doc.AddText("Lease", leaseID)
	doc.AddText("Seq", strconv.FormatUint(seq, 10))
	_, err := s.callCredentialed(ctx, OpHeartbeat, doc)
	if err != nil {
		var opErr *client.OpError
		if errors.As(err, &opErr) && opErr.Token == proto.ErrLeaseExpired {
			return ErrLeaseLost
		}
		return err
	}
	return nil
}

// Lease returns the current presence lease id and TTL ("" / 0 when the
// broker granted none).
func (s *SecureClient) Lease() (string, time.Duration) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.leaseID, s.leaseTTL
}

// handleHeartbeat is the broker side: a verified credentialed request
// (the secureRenew pipeline) plus the lease-id and sequence binding,
// then a lease renewal.
func (bs *BrokerSecurity) handleHeartbeat(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	doc, current, token := bs.credentialedRequest(from, msg, "HeartbeatRequest", audit.KindHeartbeat, OpHeartbeat)
	if token == "" {
		seq, err := strconv.ParseUint(doc.ChildText("Seq"), 10, 64)
		if err != nil {
			token = proto.ErrBadRequest
		} else {
			token = bs.renewLease(current.Subject, doc.ChildText("Lease"), seq, bs.b.Now())
		}
		if token != "" {
			bs.auditAuth(audit.KindHeartbeat, current.Subject, OpHeartbeat, token)
		}
	}
	if token != "" {
		bs.heartbeatsRejected.Add(1)
		return proto.Fail(token)
	}
	bs.heartbeatsRenewed.Add(1)
	return proto.OK()
}
