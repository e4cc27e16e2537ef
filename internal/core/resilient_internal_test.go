package core

// White-box classification table: which failures retry, which resume,
// which are terminal. The classification IS the trust model (see
// SECURITY.md): an auth refusal that retried would hammer the broker
// with what looks like a credential-stuffing loop.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/xdsig"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name  string
		err   error
		want  callClass
		floor time.Duration
	}{
		{"transport timeout", context.DeadlineExceeded, classRetryable, 0},
		{"wrapped transport", fmt.Errorf("request: %w", errors.New("link down")), classRetryable, 0},
		{"not connected", client.ErrNotConnected, classResume, 0},
		{"lease lost", ErrLeaseLost, classResume, 0},
		{"not logged in", &client.OpError{Token: proto.ErrNotLoggedIn}, classResume, 0},
		{"lease expired token", &client.OpError{Token: proto.ErrLeaseExpired}, classResume, 0},
		{"bad sid", &client.OpError{Token: proto.ErrBadSid}, classResume, 0},
		{"rate limited plain", client.ErrRateLimited, classRetryable, 0},
		{"rate limited hinted", &client.RateLimitedError{RetryAfter: 20 * time.Millisecond}, classRetryable, 20 * time.Millisecond},
		{"relay quota", client.ErrRelayQuota, classRetryable, 0},
		{"auth failed", &client.OpError{Token: proto.ErrAuthFailed}, classTerminal, 0},
		{"bad signature", &client.OpError{Token: proto.ErrBadSignature}, classTerminal, 0},
		{"bad credential", &client.OpError{Token: proto.ErrBadCredential}, classTerminal, 0},
		{"cbid mismatch", &client.OpError{Token: proto.ErrCBIDMismatch}, classTerminal, 0},
		{"bad request", &client.OpError{Token: proto.ErrBadRequest}, classTerminal, 0},
		{"unknown op", &client.OpError{Token: proto.ErrUnknownOp}, classTerminal, 0},
		{"canceled", context.Canceled, classTerminal, 0},
		{"unknown token", &client.OpError{Token: proto.ErrNotFound}, classRetryable, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cls, floor := classify(tc.err)
			if cls != tc.want {
				t.Fatalf("classify(%v) = %v, want %v", tc.err, cls, tc.want)
			}
			if floor != tc.floor {
				t.Fatalf("classify(%v) floor = %v, want %v", tc.err, floor, tc.floor)
			}
		})
	}
}

// TestRefusedVerdicts: which failed verdicts end senderKeyPatient's wait
// at once. Each cause arrives wrapped as peerVerdict wraps it, under
// xdsig's and cred's own wrapping; a lapsed chain and a lookup failure
// are asked again.
func TestRefusedVerdicts(t *testing.T) {
	verdict := func(cause error) error { return fmt.Errorf("%w: %w", ErrPeerAdvInvalid, cause) }
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"bad signature", verdict(xdsig.ErrBadSignature), true},
		{"digest mismatch", verdict(xdsig.ErrDigestMismatch), true},
		{"untrusted issuer", verdict(fmt.Errorf("xdsig: %w", fmt.Errorf("cred: chain root: %w: issuer %q", cred.ErrUntrusted, "x"))), true},
		{"bad credential signature", verdict(fmt.Errorf("xdsig: %w", fmt.Errorf("cred: chain link 0: %w", cred.ErrBadSignature))), true},
		{"signer does not own it", fmt.Errorf("%w: its signer does not own it", ErrPeerAdvInvalid), true},
		{"forged lapsed chain", verdict(fmt.Errorf("xdsig: %w", forgedLapsedChain(t))), true},
		{"lapsed chain", verdict(fmt.Errorf("xdsig: %w", fmt.Errorf("cred: chain link 0: %w", cred.ErrExpired))), false},
		{"lookup failed", &client.OpError{Token: proto.ErrNotFound}, false},
		{"lookup timed out", context.DeadlineExceeded, false},
	}
	for _, tc := range cases {
		if got := refused(tc.err); got != tc.want {
			t.Errorf("%s: refused(%v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
}

// forgedLapsedChain is a trust store's verdict on a chain whose leaf
// evilKP "issued" under a genuine broker's name, with a window that ended
// an hour ago: a forgery, whatever its window says.
func forgedLapsedChain(t *testing.T) error {
	now := time.Now()
	adm, err := cred.SelfSigned(senderKP, "admin", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	br, err := cred.Issue(senderKP, adm.Subject, "urn:jxta:cbid-broker", "broker-1", cred.RoleBroker, recvKP.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := cred.IssueAt(now.Add(-2*time.Hour), evilKP, br.Subject, "urn:jxta:cbid-alice", "alice", cred.RoleClient, evilKP.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := cred.NewTrustStore(adm)
	if err != nil {
		t.Fatal(err)
	}
	err = ts.VerifyChain(now, leaf, br)
	if err == nil {
		t.Fatal("a forged chain verified")
	}
	return err
}

// TestBackoffJitterFollowsUsername: a client draws its waits from its
// username. Two clients that fail at the same moment draw different
// waits, so they do not retry in lockstep; a client of the same username
// (the same user in another run) draws the same waits again.
func TestBackoffJitterFollowsUsername(t *testing.T) {
	net := simnet.NewNetwork(simnet.ProfileLocal)
	t.Cleanup(net.Close)
	dep, err := NewDeploymentFromKey(mustKey(430), "admin")
	if err != nil {
		t.Fatal(err)
	}
	newClient := func(alias string) *SecureClient {
		sc, err := dep.NewClient(net, alias)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sc.Close)
		return sc
	}
	alice, bob := newClient("alice"), newClient("bob")
	// Three loops' waits, as a call, a resume and another call draw them.
	draws := func(sc *SecureClient) []time.Duration {
		r := NewResilientClient(sc, "", "")
		var d []time.Duration
		for range 3 {
			src := r.newBackoff()
			for range 4 {
				d = append(d, src.Next())
			}
		}
		return d
	}
	a, b := draws(alice), draws(bob)
	if a[0] == b[0] {
		t.Fatalf("alice and bob both wait %v before their first retry: they retry in lockstep", a[0])
	}
	if again := draws(alice); !slices.Equal(a, again) {
		t.Fatalf("alice's waits differ between two clients of hers:\n%v\n%v", a, again)
	}
}
