package attack_test

import (
	"errors"
	"testing"
	"time"

	"jxtaoverlay/internal/admission"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/proto"
)

// --- Resource exhaustion: one credential flooding the op surface ---
//
// The paper's broker answers every operation a logged-in peer sends, so
// a single legitimate credential can monopolize the broker by hammering
// it — not an identity attack, a resource one. Admission control bounds
// it: each credential spends tokens per operation, exhaustion earns the
// `rate-limited` wire refusal, and a refusal streak raises a
// SecurityAlert on the broker's audit bus. The defense is isolation,
// not punishment — other credentials keep their own buckets and never
// notice the flood.

func TestFloodingCredentialRateLimited(t *testing.T) {
	s := newSecureStack(t)
	mallory := s.join(t, "mallory", "mallory-pw")
	bob := s.join(t, "bob", "bob-secret-pw")
	ctx := testCtx(t)

	// Admission goes on after login so the handshake ops don't eat into
	// the flood budget and the numbers below stay deterministic.
	s.br.EnableAdmission(admission.New(admission.Config{
		Rate: 5, Burst: 8,
	}))
	alerts := events.NewCollector(s.br.Bus())

	// Mallory floods listPeers far past her burst. The flood must hit
	// the rate limiter, and keep hitting it once the bucket is dry.
	var limited int
	for i := 0; i < 60; i++ {
		_, err := mallory.GetOnlinePeers(ctx, "math")
		if errors.Is(err, client.ErrRateLimited) {
			limited++
		} else if err != nil {
			t.Fatalf("flood call %d: unexpected error %v", i, err)
		}
	}
	if limited == 0 {
		t.Fatal("flooding credential was never rate limited")
	}

	// The refusal streak crossed the offense threshold: the broker's
	// audit bus carries a SecurityAlert naming the refusal.
	ev, ok := alerts.WaitFor(events.SecurityAlert, 5*time.Second)
	if !ok {
		t.Fatal("no SecurityAlert for the flooding credential")
	}
	if ev.From != mallory.PeerID() {
		t.Fatalf("alert names %s, want %s", ev.From, mallory.PeerID())
	}
	if ev.Attr("reason") != proto.ErrRateLimited {
		t.Fatalf("alert reason = %q, want %q", ev.Attr("reason"), proto.ErrRateLimited)
	}

	// Isolation: bob's bucket is untouched by mallory's flood — his
	// operations still succeed while mallory is being refused.
	if _, err := mallory.GetOnlinePeers(ctx, "math"); !errors.Is(err, client.ErrRateLimited) {
		t.Fatalf("mallory not still limited: %v", err)
	}
	if _, err := bob.GetOnlinePeers(ctx, "math"); err != nil {
		t.Fatalf("bob starved by mallory's flood: %v", err)
	}

	// The refusal is visible in the broker's own accounting too.
	if st := s.br.Stats(); st.OpsRateLimited == 0 {
		t.Fatal("broker stats recorded no rate-limited ops")
	}
}

// A drained bucket refills: after backing off for the advertised
// window, the offender is served again (and the successful call resets
// its offense streak).
func TestRateLimitRecoversAfterBackoff(t *testing.T) {
	s := newSecureStack(t)
	mallory := s.join(t, "mallory", "mallory-pw")
	ctx := testCtx(t)

	s.br.EnableAdmission(admission.New(admission.Config{
		Rate: 50, Burst: 4,
	}))

	var sawLimit bool
	for i := 0; i < 30; i++ {
		if _, err := mallory.GetOnlinePeers(ctx, "math"); errors.Is(err, client.ErrRateLimited) {
			sawLimit = true
			break
		}
	}
	if !sawLimit {
		t.Fatal("burst never exhausted")
	}

	// At 50 tokens/s a 200ms pause buys ~10 tokens — plenty for one op.
	deadline := time.Now().Add(5 * time.Second)
	for {
		time.Sleep(200 * time.Millisecond)
		if _, err := mallory.GetOnlinePeers(ctx, "math"); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("rate limit never recovered after backoff")
		}
	}
}
