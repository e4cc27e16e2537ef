package core_test

import (
	"testing"
	"time"

	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/xdsig"
)

func TestSecureRenewCredential(t *testing.T) {
	h := newSecureHarness(t, true)
	sc := h.secureClient("alice")
	h.join(sc, "pw-alice")
	before := sc.Identity().Credential

	time.Sleep(5 * time.Millisecond) // ensure a strictly later NotAfter
	ctx := testCtx(t)
	if err := sc.SecureRenewCredential(ctx); err != nil {
		t.Fatalf("SecureRenewCredential: %v", err)
	}
	after := sc.Identity().Credential
	if after.Equal(before) {
		t.Fatal("credential not replaced")
	}
	if !after.NotAfter.After(before.NotAfter) {
		t.Fatalf("renewed NotAfter %v not after %v", after.NotAfter, before.NotAfter)
	}
	if after.Subject != before.Subject || !after.Key.Equal(before.Key) {
		t.Fatal("renewal changed the identity")
	}

	// Advertisements published after renewal are signed with the fresh
	// chain and still verify.
	if err := sc.PublishStats(ctx, "math"); err != nil {
		t.Fatalf("publish after renewal: %v", err)
	}
	recs := h.br.Cache().Find("StatsAdvertisement", nil)
	if len(recs) == 0 {
		t.Fatal("no stats advertisement at broker")
	}
	trust, _ := h.dep.TrustStore()
	res, err := xdsig.VerifyTrusted(recs[0].Doc, trust, time.Now())
	if err != nil {
		t.Fatalf("post-renewal advertisement does not verify: %v", err)
	}
	if !res.Signer.Equal(after) {
		t.Fatal("advertisement not signed with the renewed credential")
	}
}

func TestSecureRenewRequiresLogin(t *testing.T) {
	h := newSecureHarness(t, true)
	sc := h.secureClient("alice")
	ctx := testCtx(t)
	if err := sc.SecureRenewCredential(ctx); err == nil {
		t.Fatal("renewal succeeded without a credential")
	}
}

func TestSecureRenewRejectsForeignCredential(t *testing.T) {
	// A credential issued by a different (valid) broker of another
	// deployment is not renewable here.
	h := newSecureHarness(t, true)
	sc := h.secureClient("alice")
	h.join(sc, "pw-alice")

	otherKP, _ := keys.NewKeyPair()
	otherID, _ := keys.CBID(otherKP.Public())
	forged, err := cred.Issue(otherKP, otherID, sc.PeerID(), "alice", cred.RoleClient, sc.Identity().Keys.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	core.SetSessionCredential(sc, forged)

	ctx := testCtx(t)
	if err := sc.SecureRenewCredential(ctx); err == nil {
		t.Fatal("broker renewed a credential it never issued")
	}
}

func TestSecureRenewRejectsExpiredCredential(t *testing.T) {
	// Renewal requires the current credential to still be valid: after
	// expiry the user must run the full secureLogin again.
	h := newSecureHarness(t, true)
	sc := h.secureClient("alice")
	h.join(sc, "pw-alice")

	// Craft an already-expired credential signed by the real broker key.
	expired := sc.Identity().Credential.Clone()
	expired.NotBefore = time.Now().Add(-2 * time.Hour)
	expired.NotAfter = time.Now().Add(-time.Hour)
	// Re-sign with the broker key so only the validity check can fail.
	reissued, err := cred.Issue(h.brKP, h.brCred.Subject, expired.Subject, expired.SubjectName, cred.RoleClient, expired.Key, -time.Hour)
	if err == nil {
		core.SetSessionCredential(sc, reissued)
		ctx := testCtx(t)
		if err := sc.SecureRenewCredential(ctx); err == nil {
			t.Fatal("broker renewed an expired credential")
		}
		return
	}
	// cred.Issue may reject negative validity outright; that is an
	// equally acceptable defense.
}
