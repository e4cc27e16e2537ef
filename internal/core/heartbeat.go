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
// The heartbeat carries no credential: the lease holds the one the
// login that granted it issued, and a heartbeat must be signed with that
// credential's key and arrive while it is valid — a credential past its
// NotAfter gets every heartbeat refused bad-credential, so the session
// must log in again. The signed body binds two liveness fields:
//
//   - the lease identifier minted at login — a heartbeat captured in
//     one session cannot renew a different (stolen or later) session,
//     because re-login mints a fresh lease id;
//   - a strictly increasing sequence number — a replayed heartbeat
//     (same lease, same seq) is refused and renews nothing.

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"time"

	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
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
	// cred is the credential the login that granted the lease issued: its
	// key signs the session's heartbeats, for as long as it is valid.
	cred *cred.Credential
	// session is the ConnectedAt of the session the lease belongs to:
	// the monotonic-guard key handed to Broker.ExpirePeer so a stale
	// expiry can never take down a newer session.
	session time.Time
}

// grantLease mints a presence lease for a freshly registered session,
// holding the credential its login issued. Returns ok=false when leases
// are disabled.
func (bs *BrokerSecurity) grantLease(peer keys.PeerID, issued *cred.Credential) (string, time.Duration, bool) {
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
	bs.leases[peer] = &lease{id: id, expiry: now.Add(bs.cfg.LeaseTTL), session: session, cred: issued}
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

// leaseCredential returns the credential held by peer's lease when its id
// is leaseID, and nil when peer holds no lease or another one.
func (bs *BrokerSecurity) leaseCredential(peer keys.PeerID, leaseID []byte) *cred.Credential {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if l, ok := bs.leases[peer]; ok && l.id == string(leaseID) {
		return l.cred
	}
	return nil
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

// SecureHeartbeat renews the presence lease granted at SecureLogin: the
// lease id and the next sequence number, signed for the broker.
// Returns ErrLeaseLost when the broker no longer holds the lease (the
// session expired or was superseded) — the caller must re-establish
// the session, not retry the heartbeat.
func (s *SecureClient) SecureHeartbeat(ctx context.Context) error {
	own, brCred := s.credentials()
	if own == nil {
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
	req, err := proto.AppendRequest(nil, s.kp, brCred.Subject, proto.KindHeartbeat, s.Now(), proto.NewNonce(),
		[]byte(leaseID), binary.BigEndian.AppendUint64(nil, seq))
	if err != nil {
		return err
	}
	_, err = s.Call(ctx, endpoint.NewMessage().
		AddString(proto.ElemOp, OpHeartbeat).
		Add(proto.ElemBody, req))
	var opErr *client.OpError
	if errors.As(err, &opErr) && opErr.Token == proto.ErrLeaseExpired {
		return ErrLeaseLost
	}
	return err
}

// Lease returns the current presence lease id and TTL ("" / 0 when the
// broker granted none).
func (s *SecureClient) Lease() (string, time.Duration) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.leaseID, s.leaseTTL
}

// handleHeartbeat is the broker side. The request guard admits the
// heartbeat under the key of the credential the lease of from holds —
// none for a peer without that lease (lease-expired), and only while the
// credential's chain verifies now (bad-credential) — then the sequence
// number renews the lease. Every refusal of a heartbeat in the form is
// audited against from.
func (bs *BrokerSecurity) handleHeartbeat(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	raw, _ := msg.Get(proto.ElemBody)
	now := bs.b.Now()
	formed := false
	req, err := bs.requests.Open(raw, proto.KindHeartbeat, now, func(r *proto.Request) (*keys.PublicKey, error) {
		formed = true
		held := bs.leaseCredential(from, r.Field(proto.HeartbeatLease))
		switch {
		case held == nil:
			return nil, refusal(proto.ErrLeaseExpired)
		case bs.cfg.Trust.VerifyChain(now, held, bs.cfg.Credential) != nil:
			return nil, refusal(proto.ErrBadCredential)
		}
		return held.Key, nil
	})
	var token string
	switch {
	case err != nil:
		token = requestToken(err)
	case len(req.Field(proto.HeartbeatSeq)) != 8:
		token = proto.ErrBadRequest
	default:
		token = bs.renewLease(from, string(req.Field(proto.HeartbeatLease)), binary.BigEndian.Uint64(req.Field(proto.HeartbeatSeq)), now)
	}
	if token != "" {
		if formed {
			bs.auditAuth(audit.KindHeartbeat, from, OpHeartbeat, token)
		}
		bs.heartbeatsRejected.Add(1)
		return proto.Fail(token)
	}
	bs.heartbeatsRenewed.Add(1)
	return proto.OK()
}
