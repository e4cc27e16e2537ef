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
//     carried one, under a per-call retry budget;
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
	"math/rand"
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

// ResilientConfig tunes the resilience layer. The zero value gets
// sensible defaults.
type ResilientConfig struct {
	// Backoff shapes retry and resume delays (zero = backoff.DefaultPolicy).
	Backoff backoff.Policy
	// RetryBudget caps attempts per logical call (default 5).
	RetryBudget int
	// ResumeBudget caps login attempts per outage (default 8).
	ResumeBudget int
	// AttemptTimeout bounds each individual attempt (0 = rely on the
	// underlying client timeout or the caller's deadline). Set it when
	// the caller context carries a long deadline: without a per-attempt
	// bound, one silently lost request consumes the whole deadline
	// before the first retry fires.
	AttemptTimeout time.Duration
	// Seed makes the jitter deterministic (simulations); 0 seeds from
	// entropy.
	Seed int64
}

func (c ResilientConfig) withDefaults() ResilientConfig {
	if c.RetryBudget <= 0 {
		c.RetryBudget = 5
	}
	if c.ResumeBudget <= 0 {
		c.ResumeBudget = 8
	}
	return c
}

// ResilienceStats is a snapshot of the wrapper's counters (scenario
// gates and telemetry read these).
type ResilienceStats struct {
	Retries           uint64 // attempts beyond the first, across all calls
	Resumes           uint64 // successful session resumes
	ResumeAttempts    uint64 // login attempts made during resumes
	HeartbeatsSent    uint64 // heartbeat renewals attempted
	HeartbeatFailures uint64 // heartbeats that did not renew the lease
}

// ResilientClient wraps a SecureClient with retries, heartbeats and
// automatic session resume. All SecureClient primitives remain
// available through embedding; the wrapper adds the resilient call
// surface and owns the session lifecycle (Connect/Close).
type ResilientClient struct {
	*SecureClient

	cfg      ResilientConfig
	brokerID keys.PeerID
	password string

	idemCounter atomic.Uint64 // per-client idempotency key sequence
	seedCounter atomic.Int64  // decorrelates seeded backoff sources

	mu         sync.Mutex
	closed     bool
	resuming   bool
	resumeDone chan struct{} // closed when the in-flight resume finishes
	resumeErr  error         // outcome of the last finished resume
	hbStop     chan struct{}
	hbDone     chan struct{}

	retries           atomic.Uint64
	resumes           atomic.Uint64
	resumeAttempts    atomic.Uint64
	heartbeatsSent    atomic.Uint64
	heartbeatFailures atomic.Uint64
}

// NewResilientClient wraps an existing SecureClient. The broker ID and
// password are retained for automatic resumes.
func NewResilientClient(sc *SecureClient, brokerID keys.PeerID, password string, cfg ResilientConfig) *ResilientClient {
	return &ResilientClient{
		SecureClient: sc,
		cfg:          cfg.withDefaults(),
		brokerID:     brokerID,
		password:     password,
	}
}

// Stats returns the resilience counter snapshot.
func (r *ResilientClient) Stats() ResilienceStats {
	return ResilienceStats{
		Retries:           r.retries.Load(),
		Resumes:           r.resumes.Load(),
		ResumeAttempts:    r.resumeAttempts.Load(),
		HeartbeatsSent:    r.heartbeatsSent.Load(),
		HeartbeatFailures: r.heartbeatFailures.Load(),
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
	src := backoff.NewSource(r.cfg.Backoff, r.seed())
	var lastErr error
	for attempt := 0; attempt < r.cfg.RetryBudget; attempt++ {
		if r.isClosed() {
			return ErrClosed
		}
		if cerr := ctx.Err(); cerr != nil {
			if lastErr != nil {
				return fmt.Errorf("%w (last attempt: %w)", cerr, lastErr)
			}
			return cerr
		}
		if attempt > 0 {
			r.retries.Add(1)
		}
		err := r.attempt(ctx, fn)
		if err == nil {
			return nil
		}
		lastErr = err
		switch cls, floor := classify(err); cls {
		case classTerminal:
			return err
		case classResume:
			// The session is gone; a bare retry would fail the same way.
			// Resume (or join the resume already in flight), then retry
			// immediately — the resume's own backoff already paced us.
			if rerr := r.ensureResumed(ctx); rerr != nil {
				return fmt.Errorf("%w (after %v)", rerr, err)
			}
		case classRetryable:
			delay := src.Next()
			if delay < floor {
				delay = floor
			}
			if serr := r.sleep(ctx, delay); serr != nil {
				return serr
			}
		}
	}
	return fmt.Errorf("%w after %d attempts: %w", ErrRetryBudget, r.cfg.RetryBudget, lastErr)
}

// attempt runs one try of fn under the per-attempt timeout.
func (r *ResilientClient) attempt(ctx context.Context, fn func(context.Context) error) error {
	if r.cfg.AttemptTimeout <= 0 {
		return fn(ctx)
	}
	actx, cancel := context.WithTimeout(ctx, r.cfg.AttemptTimeout)
	defer cancel()
	return fn(actx)
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
	// Roster and per-recipient key verification are read-only: they ride
	// the plain resilient path.
	var ids []keys.PeerID
	if err := r.Do(ctx, func(ctx context.Context) error {
		members, merr := r.GetGroupMembers(ctx, group)
		if merr != nil {
			return merr
		}
		ids = ids[:0]
		for _, m := range members {
			if m.ID != r.PeerID() {
				ids = append(ids, m.ID)
			}
		}
		return nil
	}); err != nil {
		return 0, 0, err
	}
	if len(ids) == 0 {
		return 0, 0, nil
	}
	targets := make([]roundTarget, len(ids))
	for i, id := range ids {
		i, id := i, id
		if err := r.Do(ctx, func(ctx context.Context) error {
			key, _, kerr := r.verifiedPeerKey(ctx, id, group)
			targets[i].key = key
			return kerr
		}); err != nil {
			return 0, 0, err
		}
	}
	errs := make([]error, len(ids))
	var callErr error
	r.sealRounds(group, text, targets, errs, func(d *DetachedRound, chunk []int, tid uint64) {
		if callErr != nil {
			return // an upload already failed for good: send nothing further
		}
		// One key per sealed round, stamped before the retry loop: every
		// resubmission of this wire presents the same key.
		resp, cerr := r.CallIdempotent(ctx, relayRoundMsg(group, ids, d, chunk, tid))
		if cerr != nil {
			callErr = cerr
			return
		}
		di, qi, rerr := relayCounts(resp, len(chunk))
		direct += di
		queued += qi
		if err == nil {
			err = rerr
		}
	})
	if callErr != nil {
		return direct, queued, callErr
	}
	if _, serr := tallyFanOut(errs); serr != nil {
		return direct, queued, serr
	}
	return direct, queued, err
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
			return classTerminal, opErr.RetryAfter
		}
		return classRetryable, opErr.RetryAfter
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
	var sp trace.Span
	var tid uint64
	if tr := r.Tracer(); tr != nil {
		tid = tr.NewID()
		sp = trace.Begin(tid, trace.StageResume)
	}
	src := backoff.NewSource(r.cfg.Backoff, r.seed())
	var lastErr error
	for attempt := 1; attempt <= r.cfg.ResumeBudget; attempt++ {
		if r.isClosed() {
			return ErrClosed
		}
		r.resumeAttempts.Add(1)
		err := r.attempt(ctx, func(ctx context.Context) error {
			return r.Join(ctx, r.brokerID, r.password)
		})
		if err == nil {
			r.resumes.Add(1)
			if tr := r.Tracer(); tr != nil {
				sp.SetAttr("attempts", strconv.Itoa(attempt))
				tr.End(sp, trace.OutcomeOK)
			}
			r.Bus().Emit(events.Event{
				Type: events.Reconnected,
				From: r.brokerID,
				Payload: map[string]string{
					"attempts": strconv.Itoa(attempt),
				},
			})
			return nil
		}
		lastErr = err
		if serr := r.sleep(ctx, src.Next()); serr != nil {
			if tr := r.Tracer(); tr != nil {
				tr.End(sp, trace.OutcomeError)
			}
			return serr
		}
	}
	if tr := r.Tracer(); tr != nil {
		tr.End(sp, trace.OutcomeError)
	}
	return fmt.Errorf("%w after %d attempts: %w", ErrResumeFailed, r.cfg.ResumeBudget, lastErr)
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
			r.heartbeatFailures.Add(1)
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

// sleep waits the backoff delay, aborting on context cancellation or
// client close.
func (r *ResilientClient) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return ErrClosed
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// seed derives a per-source jitter seed. With a configured seed the
// sequence is deterministic but still decorrelated across sources
// (each draws a distinct offset); unseeded clients decorrelate from
// each other through entropy.
func (r *ResilientClient) seed() int64 {
	if r.cfg.Seed == 0 {
		return rand.Int63()
	}
	return r.cfg.Seed + int64(r.seedCounter.Add(1))
}
