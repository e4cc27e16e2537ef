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
// A lease is part of the broker's session record (broker.Lease), and a
// logout, an expiry or the peer's next login ends it with the session.
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
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"time"

	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/client"
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

// newLeaseID mints the identifier of a presence lease for a login, or
// returns "" when leases are disabled.
func (bs *BrokerSecurity) newLeaseID() string {
	if bs.cfg.LeaseTTL <= 0 {
		return ""
	}
	id, _ := randomID("ls-") // "" when randomness fails: no lease
	return id
}

// randomID is prefix followed by the hex of 16 random bytes: a session or
// lease identifier. It is built in one buffer on the stack and converted
// once, so the string is its one allocation.
func randomID(prefix string) (string, error) {
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", err
	}
	var room [8 + 2*len(raw)]byte
	return string(hex.AppendEncode(append(room[:0], prefix...), raw[:])), nil
}

// Leases reports how many presence leases are live (telemetry gauge).
func (bs *BrokerSecurity) Leases() int { return bs.b.Leases() }

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

// expireLapsed takes down every session whose lease has lapsed: one
// broker pass that ends each under the lock that writes the records.
func (bs *BrokerSecurity) expireLapsed() {
	for _, peer := range bs.b.ExpireLeases() {
		bs.leasesExpired.Add(1)
		bs.auditAuth(audit.KindHeartbeat, peer, OpHeartbeat, proto.ErrLeaseExpired)
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
		held := bs.b.LeaseCredential(from, r.Field(proto.HeartbeatLease))
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
		token = bs.b.RenewLease(from, req.Field(proto.HeartbeatLease), binary.BigEndian.Uint64(req.Field(proto.HeartbeatSeq)), now)
	}
	if token != "" {
		if formed {
			bs.auditAuth(audit.KindHeartbeat, from, OpHeartbeat, token)
		}
		bs.heartbeatsRejected.Add(1)
		return proto.Fail(token)
	}
	bs.heartbeatsRenewed.Add(1)
	return proto.BareOK()
}
