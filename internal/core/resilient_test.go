package core_test

// Black-box resilience tests: resume after lease loss, retry under
// rate limiting, terminal auth refusals, and the Reconnected event.

import (
	"context"
	"errors"
	"testing"
	"time"

	"jxtaoverlay/internal/backoff"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/waituntil"
)

func listPeersReq(group string) *endpoint.Message {
	return endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpListPeers).
		AddString(proto.ElemGroup, group)
}

func resilientCfg() core.ResilientConfig {
	return core.ResilientConfig{
		Backoff: backoff.Policy{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond},
		Seed:    42,
	}
}

func TestResilientResumeAfterLeaseLoss(t *testing.T) {
	h := newLeaseHarness(t)
	sc := h.secureClient("alice")
	rc := core.NewResilientClient(sc, h.br.PeerID(), "pw-alice", resilientCfg())
	if err := rc.Connect(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	rec := events.NewCollector(rc.Bus())

	// The session silently dies: its lease lapses and the sweeper takes
	// presence down. The next resilient call must transparently resume
	// (fresh secureConnection + secureLogin) and then succeed.
	h.advance(testLeaseTTL + time.Second)
	h.brSec.ExpireLapsedNow()
	if h.br.PeerOnline(rc.PeerID()) {
		t.Fatal("expired session still online")
	}

	resp, err := rc.CallResilient(testCtx(t), listPeersReq("math"))
	if err != nil {
		t.Fatalf("resilient call after lease loss: %v", err)
	}
	if ok, _ := proto.IsOK(resp); !ok {
		t.Fatal("resilient call returned a refusal")
	}
	if !h.br.PeerOnline(rc.PeerID()) {
		t.Fatal("resume did not re-establish presence")
	}
	if _, ok := rec.WaitFor(events.Reconnected, 5*time.Second); !ok {
		t.Fatal("no Reconnected event after resume")
	}
	if st := rc.Stats(); st.Resumes != 1 {
		t.Fatalf("stats = %+v, want exactly 1 resume", st)
	}
	if lease, _ := rc.Lease(); lease == "" {
		t.Fatal("resumed session holds no lease")
	}
}

func TestResilientTerminalAuthNotRetried(t *testing.T) {
	// Auth refusals must fail immediately: no retries, no resume loop
	// hammering the broker with bad credentials.
	h := newLeaseHarness(t)
	sc := h.secureClient("alice")
	rc := core.NewResilientClient(sc, h.br.PeerID(), "pw-alice", resilientCfg())
	if err := rc.Connect(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)

	req := endpoint.NewMessage().AddString(proto.ElemOp, "no-such-op")
	_, err := rc.CallResilient(testCtx(t), req)
	var opErr *client.OpError
	if !errors.As(err, &opErr) || opErr.Token != proto.ErrUnknownOp {
		t.Fatalf("err = %v, want unknown-op refusal", err)
	}
	if st := rc.Stats(); st.Retries != 0 {
		t.Fatalf("terminal refusal was retried %d times", st.Retries)
	}
}

func TestResilientRetryBudgetExhausts(t *testing.T) {
	// A peer that can never reach the broker gives up after the budget,
	// wrapping the last failure.
	h := newLeaseHarness(t)
	sc := h.secureClient("alice")
	cfg := resilientCfg()
	cfg.RetryBudget = 3
	cfg.ResumeBudget = 2
	rc := core.NewResilientClient(sc, h.br.PeerID(), "pw-alice", cfg)
	if err := rc.Connect(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)

	// Sever the link for good; keep per-attempt timeouts short.
	sc.SetTimeout(100 * time.Millisecond)
	h.net.Partition(simnet.NodeID(rc.PeerID()), h.br.NodeID())

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_, err := rc.CallResilient(ctx, listPeersReq("math"))
	if err == nil {
		t.Fatal("call across a permanent partition succeeded")
	}
	if !errors.Is(err, core.ErrRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", err)
	}
	if st := rc.Stats(); st.Retries == 0 {
		t.Fatal("no retries recorded before giving up")
	}
}

func TestResilientIdempotentCallMintsDistinctKeys(t *testing.T) {
	h := newLeaseHarness(t)
	sc := h.secureClient("alice")
	rc := core.NewResilientClient(sc, h.br.PeerID(), "pw-alice", resilientCfg())
	if err := rc.Connect(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	ctx := testCtx(t)

	mk := func(name string) *endpoint.Message {
		return endpoint.NewMessage().
			AddString(proto.ElemOp, proto.OpGroupCreate).
			AddString(proto.ElemGroup, name).
			AddString(proto.ElemDesc, "d")
	}
	if _, err := rc.CallIdempotent(ctx, mk("g-one")); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.CallIdempotent(ctx, mk("g-two")); err != nil {
		t.Fatal(err)
	}
	// Distinct logical calls carry distinct keys: the second create is
	// NOT collapsed into the first's cached response.
	if got := h.br.Stats().IdemDeduped; got != 0 {
		t.Fatalf("IdemDeduped = %d, want 0 across distinct calls", got)
	}
	if h.br.IdemEntries() != 2 {
		t.Fatalf("IdemEntries = %d, want 2", h.br.IdemEntries())
	}
}

// TestResilientSurvivesCredentialExpiry: past its NotAfter a session's
// credential gets every heartbeat refused bad-credential before the lease
// is looked at, so the client is never told the lease is lost. That
// refusal must resume the session too — the re-login is issued the next
// credential and re-publishes the pipe advertisements under it — or the
// lease lapses and the client stays dark. Real time: the expiry that
// matters is the one cred.Verify reads off the wall clock.
func TestResilientSurvivesCredentialExpiry(t *testing.T) {
	const validity = 2 * time.Second
	h := newSecureHarnessWith(t, core.BrokerConfig{RequireSignedAdvs: true, CredValidity: validity, LeaseTTL: 900 * time.Millisecond})
	rc := core.NewResilientClient(h.secureClient("alice"), h.br.PeerID(), "pw-alice", resilientCfg())
	connected := time.Now()
	if err := rc.Connect(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	got := events.NewCollector(rc.Bus())
	// Each message comes from a sender that has just booted, so it asks
	// the broker for alice's signed pipe advertisement: the send goes
	// through only while the credential she last published is good.
	send := func(text string) {
		t.Helper()
		bob := h.secureClient("bob")
		defer bob.Close()
		h.join(bob, "pw-bob")
		sendAndWait(t, bob, rc.SecureClient, got, text)
	}

	send("before expiry")
	waituntil.Must(t, validity+5*time.Second, func() bool { return rc.Stats().Resumes > 0 }, "no resume after the credential expired")
	if st := rc.Stats(); st.Resumes != 1 {
		t.Fatalf("stats = %+v, want exactly 1 resume for one expiry", st)
	}
	if up := time.Since(connected); up < validity {
		t.Fatalf("resumed %v after connecting, before the credential's %v were over", up, validity)
	}
	// The sender verifies alice's chain: she published under a credential
	// that is good now, so the resume was issued a fresh one.
	send("after expiry")
	// One resume per credential, not one per refused heartbeat.
	if st, most := rc.Stats(), uint64(time.Since(connected)/validity); st.Resumes > most {
		t.Fatalf("stats = %+v, want at most %d resumes over %v", st, most, time.Since(connected))
	}
}

// TestSessionCredentialReadAcrossResume: TestResilientSurvivesCredentialExpiry's
// setup, with a foreground that keeps using the session credential while
// the heartbeat loop's resume installs the next one — every heartbeat
// presents it, and every envelope to a peer bounds the channel it offers
// by its NotAfter (a two-second credential never leaves room for one, so
// every send is an envelope). Run under -race: the credential used to be
// written by the resume and read here through the membership identity,
// under no common lock.
func TestSessionCredentialReadAcrossResume(t *testing.T) {
	const validity = 2 * time.Second
	h := newSecureHarnessWith(t, core.BrokerConfig{RequireSignedAdvs: true, CredValidity: validity, LeaseTTL: 900 * time.Millisecond})
	rc := core.NewResilientClient(h.secureClient("alice"), h.br.PeerID(), "pw-alice", resilientCfg())
	if err := rc.Connect(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	// bob joins half a validity later, so that his advertisement still
	// verifies while alice's credential runs out and is replaced.
	time.Sleep(validity / 2)
	bob := h.secureClient("bob")
	h.join(bob, "pw-bob")

	ctx := testCtx(t)
	sent, beats := 0, 0
	for deadline := time.Now().Add(validity + 5*time.Second); rc.Stats().Resumes == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no resume after the credential expired")
		}
		if rc.SecureMsgPeer(ctx, bob.PeerID(), "math", "foreground") == nil {
			sent++
		}
		if rc.SecureHeartbeat(ctx) == nil {
			beats++
		}
	}
	if sent == 0 || beats == 0 {
		t.Fatalf("%d sends and %d heartbeats went through before the resume, want some of each", sent, beats)
	}
}
