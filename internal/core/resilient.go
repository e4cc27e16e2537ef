package core

// Client resilience: a retry/resume layer over the secure primitives.
//
// The paper's client assumes a stable session: connect once, login
// once, every primitive either succeeds or surfaces its error to the
// application. Under churn — lossy links, partitions, broker restarts,
// admission refusals — that pushes all recovery logic into every
// application. ResilientClient centralises it:
//
//   - error classification: transport failures and backpressure
//     refusals (rate-limited, relay-quota) are retryable; liveness
//     failures (lease-expired, not-logged-in, no connection) trigger a
//     session resume; authentication failures are terminal and never
//     retried (a wrong password does not become right by retrying, and
//     hammering auth looks like an attack);
//   - capped exponential backoff with full jitter between retries,
//     flooring on the broker's retry-after hint when the refusal
//     carried one, under a per-call retry budget — one fixed policy for
//     every client, and one loop (retry) for every call and resume;
//   - idempotency keys: CallIdempotent stamps a mutating request with
//     a client-minted key so a retry after an ambiguous timeout (the
//     op may or may not have executed) is collapsed by the broker's
//     dedup window into at-most-once execution;
//   - automatic session resume: on lease loss or connection death the
//     wrapper re-runs secureConnection + secureLogin (which re-binds
//     group pipes and republishes signed advertisements), then releases
//     every call parked on the outage — the pending-send flush — and
//     emits a Reconnected event carrying the attempt count;
//   - a heartbeat loop renewing the presence lease at a third of its
//     TTL, so the broker keeps pushing to this session instead of
//     expiring it into the relay queue.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"jxtaoverlay/internal/backoff"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/trace"
)

// ErrRetryBudget is returned when a call exhausted its retry budget;
// the last underlying failure is wrapped alongside it.
var ErrRetryBudget = errors.New("core: retry budget exhausted")

// ErrResumeFailed is returned when a session resume exhausted its
// attempt budget without re-establishing the session.
var ErrResumeFailed = errors.New("core: session resume failed")

// ErrClosed is returned by calls on a closed ResilientClient.
var ErrClosed = errors.New("core: resilient client closed")

// The resilience policy, one for every client. A call's tries must
// outlast an outage a peer rides through without losing its lease — a
// partition held for a lease TTL plus a sweep plus a relay restart
// (~3 s): 25 tries at 25 ms doubling to 400 ms sleep ~4.4 s on average,
// comfortably past it. Each try is bounded, so a silently lost frame
// costs one tryTimeout and not the caller's whole deadline before the
// first retry fires.
const (
	retryBase    = 25 * time.Millisecond  // ceiling of the first wait
	retryCap     = 400 * time.Millisecond // ceiling of every later one
	retryBudget  = 25                     // tries per call
	resumeBudget = 8                      // login tries per outage
	tryTimeout   = 600 * time.Millisecond // bound on each try
)

// MaxResumeAttempts bounds the logins one client makes to resume its
// session across an outage of the given length: as many waits as the
// backoff can fit into it, each at its shortest, plus one resume's
// budget. More attempts than this is a reconnect storm.
func MaxResumeAttempts(outage time.Duration) int {
	return backoff.Policy{Base: retryBase, Cap: retryCap}.MaxDelaysWithin(outage) + resumeBudget
}

// ResilienceStats is a snapshot of the wrapper's counters (scenario
// gates and telemetry read these).
type ResilienceStats struct {
	Retries        uint64 // attempts beyond the first, across all calls
	Resumes        uint64 // successful session resumes
	ResumeAttempts uint64 // login attempts made during resumes
	HeartbeatsSent uint64 // heartbeat renewals attempted
}

// ResilientClient wraps a SecureClient with retries, heartbeats and
// automatic session resume. All SecureClient primitives remain
// available through embedding; the wrapper adds the resilient call
// surface and owns the session lifecycle (Connect/Close).
type ResilientClient struct {
	*SecureClient

	brokerID keys.PeerID
	password string
	userSeed int64 // the username's hash: each client's jitter differs

	idemCounter atomic.Uint64 // per-client idempotency key sequence
	seedCounter atomic.Int64  // decorrelates the client's backoff sources

	mu         sync.Mutex
	closed     bool
	resuming   bool
	resumeDone chan struct{} // closed when the in-flight resume finishes
	resumeErr  error         // outcome of the last finished resume
	hbStop     chan struct{}
	hbDone     chan struct{}

	retries        atomic.Uint64
	resumes        atomic.Uint64
	resumeAttempts atomic.Uint64
	heartbeatsSent atomic.Uint64
}

// NewResilientClient wraps an existing SecureClient. The broker ID and
// password are retained for automatic resumes.
func NewResilientClient(sc *SecureClient, brokerID keys.PeerID, password string) *ResilientClient {
	h := fnv.New64a()
	h.Write([]byte(sc.Username()))
	return &ResilientClient{
		SecureClient: sc,
		brokerID:     brokerID,
		password:     password,
		userSeed:     int64(h.Sum64()),
	}
}

// Stats returns the resilience counter snapshot.
func (r *ResilientClient) Stats() ResilienceStats {
	return ResilienceStats{
		Retries:        r.retries.Load(),
		Resumes:        r.resumes.Load(),
		ResumeAttempts: r.resumeAttempts.Load(),
		HeartbeatsSent: r.heartbeatsSent.Load(),
	}
}

// Connect establishes the secure session (secureConnection +
// secureLogin) and starts the heartbeat loop when the broker granted a
// lease. The initial connect is not retried — a broker that is down at
// startup is a deployment problem, not churn.
func (r *ResilientClient) Connect(ctx context.Context) error {
	if err := r.Join(ctx, r.brokerID, r.password); err != nil {
		return err
	}
	r.startHeartbeat()
	return nil
}

// Close stops the heartbeat loop and closes the underlying client.
// Calls in flight fail with ErrClosed at their next attempt.
func (r *ResilientClient) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	hbStop, hbDone := r.hbStop, r.hbDone
	r.mu.Unlock()
	if hbStop != nil {
		close(hbStop)
		<-hbDone
	}
	r.SecureClient.Close()
}

// Logout stops the heartbeat loop, then logs the session out. The broker
// ends the session's lease with it, so a loop left running would meet
// lease-lost at its next heartbeat and log the peer back in. Connect
// starts a session, and its loop, again.
func (r *ResilientClient) Logout(ctx context.Context) error {
	r.mu.Lock()
	hbStop, hbDone := r.hbStop, r.hbDone
	r.hbStop, r.hbDone = nil, nil
	r.mu.Unlock()
	if hbStop != nil {
		close(hbStop)
		<-hbDone
	}
	return r.SecureClient.Logout(ctx)
}

// isClosed reports whether Close ran.
func (r *ResilientClient) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// NextIdemKey mints a fresh idempotency key, unique per (peer, key)
// within this client's lifetime.
func (r *ResilientClient) NextIdemKey() string {
	return "ik-" + strconv.FormatUint(r.idemCounter.Add(1), 36)
}

// CallIdempotent performs one MUTATING broker operation with retries:
// the request is stamped with a fresh idempotency key, so every
// attempt presents the same key and the broker's dedup window
// collapses re-executions into at-most-once.
func (r *ResilientClient) CallIdempotent(ctx context.Context, msg *endpoint.Message) (*endpoint.Message, error) {
	msg.AddString(proto.ElemIdem, r.NextIdemKey())
	return r.CallResilient(ctx, msg)
}

// CallResilient performs one broker operation under the resilience
// policy: retryable failures back off and retry within the budget,
// liveness failures resume the session first, terminal failures return
// immediately. The message is reused across attempts (do not mutate it
// concurrently). Read-only operations can use this directly; mutating
// operations should go through CallIdempotent.
func (r *ResilientClient) CallResilient(ctx context.Context, msg *endpoint.Message) (*endpoint.Message, error) {
	var resp *endpoint.Message
	err := r.Do(ctx, func(ctx context.Context) error {
		var cerr error
		resp, cerr = r.Call(ctx, msg)
		return cerr
	})
	return resp, err
}

// Do runs fn under the resilience policy: retryable failures back off
// and re-run within the retry budget, liveness failures resume the
// session first, terminal failures return immediately. fn must be safe
// to re-run — read-only, or idempotent by construction (a request
// carrying a fixed idempotency key).
func (r *ResilientClient) Do(ctx context.Context, fn func(context.Context) error) error {
	if r.isClosed() {
		return ErrClosed
	}
	src := r.newBackoff()
	tries, err := retry(ctx, retryBudget, tryTimeout, ErrRetryBudget, fn, func(_ int, err error) (time.Duration, error) {
		if r.isClosed() {
			return 0, ErrClosed
		}
		cls, floor := classify(err)
		switch cls {
		case classTerminal:
			return 0, err
		case classResume:
			// The session is gone; a bare retry would fail the same way.
			// Resume (or join the resume already in flight), then retry
			// immediately — the resume's own backoff already paced us.
			if rerr := r.ensureResumed(ctx); rerr != nil {
				return 0, fmt.Errorf("%w (after %v)", rerr, err)
			}
			return 0, nil
		}
		return max(src.Next(), floor), nil
	})
	if tries > 1 {
		r.retries.Add(uint64(tries - 1))
	}
	return err
}

// SendGroupRelay fans text over the group's full roster through the
// broker relay under the resilience policy. It differs from calling
// SecureMsgPeerGroupRelay in a retry loop in the one way that matters
// for exactly-once delivery: each round is sealed ONCE, and the single
// sealed wire is resubmitted under one idempotency key across retries
// and session resumes. An ambiguous timeout — the upload may or may
// not have landed — therefore cannot double-enqueue (the broker's
// dedup window replays the accepted response) and recipients can never
// open the payload twice; a naive re-send would re-seal with a fresh
// nonce, which no replay guard could collapse.
func (r *ResilientClient) SendGroupRelay(ctx context.Context, group, text string) (direct, queued int, err error) {
	// Roster and recipient verification are read-only: they ride the
	// plain resilient path. A retried verification finds the verdicts of
	// the recipients that verified before in the cache. Only a failure
	// worth another try verifies again: a verdict on an advertisement, or
	// a refusal no retry mends, stays in errs, reported against its
	// recipient while the rest get the round. One forged advertisement in
	// the cache must not hold the whole send.
	var ids []keys.PeerID
	if err := r.Do(ctx, func(ctx context.Context) error {
		members, err := r.GetGroupMembers(ctx, group)
		ids = r.others(members)
		return err
	}); err != nil {
		return 0, 0, err
	}
	var targets []roundTarget
	var errs []error
	if err := r.Do(ctx, func(ctx context.Context) error {
		targets, errs = r.verifiedTargets(ctx, group, ids)
		for _, err := range errs {
			if class, _ := classify(err); err != nil && class != classTerminal && !errors.Is(err, ErrPeerAdvInvalid) {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, 0, err
	}
	// CallIdempotent stamps each round's upload with its key once, before
	// its retries: every resubmission of the wire presents the same key.
	return r.relayRounds(ctx, group, text, ids, targets, errs, r.CallIdempotent)
}

// callClass buckets a failure for the retry loop.
type callClass int

const (
	classRetryable callClass = iota // transient: back off and retry
	classResume                     // session dead: resume, then retry
	classTerminal                   // retrying cannot help
)

// classify maps an error from Call to its resilience class and, for
// retryable failures, the broker's backoff floor (0 = none).
func classify(err error) (callClass, time.Duration) {
	// Liveness failures: the session (or connection) is gone.
	if errors.Is(err, client.ErrNotConnected) || errors.Is(err, ErrLeaseLost) {
		return classResume, 0
	}
	var rle *client.RateLimitedError
	if errors.As(err, &rle) {
		// Backpressure with an explicit hint: honor it as the floor.
		return classRetryable, rle.RetryAfter
	}
	var opErr *client.OpError
	if errors.As(err, &opErr) {
		switch opErr.Token {
		case proto.ErrLeaseExpired, proto.ErrNotLoggedIn, proto.ErrBadSid:
			return classResume, 0
		case proto.ErrAuthFailed, proto.ErrBadSignature, proto.ErrBadCredential,
			proto.ErrCBIDMismatch, proto.ErrSecureRequired, proto.ErrSecurityOff,
			proto.ErrUnknownOp, proto.ErrBadRequest, proto.ErrUnsignedAdv,
			proto.ErrBadRound:
			// Auth and malformed-request refusals: deterministic, never
			// retried.
			return classTerminal, 0
		}
		return classRetryable, 0
	}
	if errors.Is(err, client.ErrRateLimited) || errors.Is(err, client.ErrRelayQuota) {
		return classRetryable, 0
	}
	if errors.Is(err, context.Canceled) {
		return classTerminal, 0
	}
	// Everything else — transport timeouts, partition drops — is
	// transient churn.
	return classRetryable, 0
}

// retry is the package's one loop that waits between attempts. It runs
// fn at most n times, each try under a timeout of its own. After try i
// (from 0) fails with err, next answers how long to wait before the
// next try, or a non-nil error to stop with. retry returns the number
// of tries made and nil once one succeeds, next's error when it stops
// the loop, ctx's error beside the last failure once ctx is done, or
// spent wrapping the last failure when all n tries failed.
func retry(ctx context.Context, n int, tryTimeout time.Duration, spent error,
	fn func(context.Context) error, next func(i int, err error) (time.Duration, error)) (int, error) {
	var last error
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return i, withLast(err, last)
		}
		tctx, cancel := context.WithTimeout(ctx, tryTimeout)
		err := fn(tctx)
		cancel()
		if err == nil {
			return i + 1, nil
		}
		last = err
		wait, stop := next(i, err)
		if stop != nil {
			return i + 1, stop
		}
		if wait <= 0 || i == n-1 {
			continue // nothing to wait for, or no try left to wait for
		}
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return i + 1, withLast(ctx.Err(), last)
		}
	}
	return n, fmt.Errorf("%w after %d attempts: %w", spent, n, last)
}

// withLast reports a done context's error beside the failure of the
// last try it interrupted, if there was one.
func withLast(ctxErr, last error) error {
	if last == nil {
		return ctxErr
	}
	return fmt.Errorf("%w (last attempt: %w)", ctxErr, last)
}

// ensureResumed re-establishes the session, joining an in-flight
// resume when one is already running (its completion is the
// pending-send flush: every parked call releases at once).
func (r *ResilientClient) ensureResumed(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	if r.resuming {
		done := r.resumeDone
		r.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return ctx.Err()
		}
		r.mu.Lock()
		err := r.resumeErr
		r.mu.Unlock()
		return err
	}
	r.resuming = true
	done := make(chan struct{})
	r.resumeDone = done
	r.mu.Unlock()

	err := r.resume(ctx)

	r.mu.Lock()
	r.resuming = false
	r.resumeErr = err
	r.mu.Unlock()
	close(done)
	return err
}

// resume re-runs the session bring-up under backoff: a fresh
// secureConnection (the session identifier is single-use on both
// sides) followed by secureLogin, which re-installs the credential,
// re-binds every group pipe and republishes the signed advertisements.
// On success a Reconnected event fires with the attempt count.
func (r *ResilientClient) resume(ctx context.Context) error {
	tr := r.Tracer()
	sp := trace.Begin(tr.NewID(), trace.StageResume)
	src := r.newBackoff()
	tries, err := retry(ctx, resumeBudget, tryTimeout, ErrResumeFailed, func(ctx context.Context) error {
		return r.Join(ctx, r.brokerID, r.password)
	}, func(int, error) (time.Duration, error) {
		if r.isClosed() {
			return 0, ErrClosed
		}
		return src.Next(), nil
	})
	r.resumeAttempts.Add(uint64(tries))
	if err != nil {
		tr.End(sp, trace.OutcomeError)
		return err
	}
	r.resumes.Add(1)
	attempts := strconv.Itoa(tries)
	sp.SetAttr("attempts", attempts)
	tr.End(sp, trace.OutcomeOK)
	r.Bus().Emit(events.Event{
		Type:    events.Reconnected,
		From:    r.brokerID,
		Payload: map[string]string{"attempts": attempts},
	})
	return nil
}

// startHeartbeat launches the renewal loop when the login granted a
// lease. Idempotent per session generation: a resume's SecureLogin
// refreshes the lease the existing loop renews, so the loop is only
// started once.
func (r *ResilientClient) startHeartbeat() {
	_, ttl := r.Lease()
	if ttl <= 0 {
		return
	}
	r.mu.Lock()
	if r.closed || r.hbStop != nil {
		r.mu.Unlock()
		return
	}
	r.hbStop = make(chan struct{})
	r.hbDone = make(chan struct{})
	stop, done := r.hbStop, r.hbDone
	r.mu.Unlock()
	go r.heartbeatLoop(stop, done)
}

// heartbeatLoop renews the lease at a third of its TTL (three misses
// before expiry). Transport failures are tolerated — the next tick
// retries; lease loss, or the credential's expiry, triggers a background
// resume so the session comes back even when the application is idle.
func (r *ResilientClient) heartbeatLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	_, ttl := r.Lease()
	interval := ttl / 3
	if interval <= 0 {
		return
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			r.heartbeatsSent.Add(1)
			ctx, cancel := context.WithTimeout(context.Background(), interval)
			err := r.SecureHeartbeat(ctx)
			cancel()
			if err == nil {
				continue
			}
			// bad-credential is the session credential past its NotAfter:
			// the broker refuses it before it looks at the lease, and the
			// re-login a resume makes is what issues the next one.
			var opErr *client.OpError
			expired := errors.As(err, &opErr) && opErr.Token == proto.ErrBadCredential
			if expired || errors.Is(err, ErrLeaseLost) || errors.Is(err, ErrNoLease) || errors.Is(err, client.ErrNotConnected) {
				// The session is gone; resume in the background. A failed
				// resume is retried at the next lease-lost heartbeat.
				rctx, rcancel := context.WithTimeout(context.Background(), time.Minute)
				_ = r.ensureResumed(rctx)
				rcancel()
			}
		}
	}
}

// newBackoff starts a jitter source for one retry loop. Its seed is the
// client's username hashed plus the number of sources the client started
// before: the same for a client in every run (its username is stable,
// its CBID is not), and different between clients, so that peers failing
// together do not retry in lockstep.
func (r *ResilientClient) newBackoff() *backoff.Source {
	return backoff.NewSource(backoff.Policy{Base: retryBase, Cap: retryCap}, r.userSeed+r.seedCounter.Add(1))
}
