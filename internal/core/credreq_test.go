package core_test

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/proto"
)

// TestStaleRenewAndHeartbeatAuditedAlike: secureRenew and the
// heartbeat share one verifier, so a request whose timestamp is ten
// minutes off the broker clock — sent by a claimant whose credential
// and proof of possession have already verified — is refused AND
// audited against that claimant for both. (The renew half used to
// return bad-request without a record.) Every heartbeat refusal still
// counts in LivenessStats.
func TestStaleRenewAndHeartbeatAuditedAlike(t *testing.T) {
	h := newLeaseHarness(t)
	jnl, err := audit.Open(audit.Options{Dir: t.TempDir(), SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() })
	h.br.SetAuditor(jnl)
	sc := h.secureClient("alice")
	h.join(sc, "pw-alice")

	h.advance(10 * time.Minute) // the client stamps wall time: now 10 min stale
	ctx := testCtx(t)
	if err := sc.SecureRenewCredential(ctx); !errors.Is(err, core.ErrRenewRejected) {
		t.Fatalf("stale renew = %v, want ErrRenewRejected", err)
	}
	if err := sc.SecureHeartbeat(ctx); err == nil {
		t.Fatal("stale heartbeat accepted")
	}
	if got := h.brSec.LivenessStats().HeartbeatsRejected; got != 1 {
		t.Fatalf("HeartbeatsRejected = %d, want 1", got)
	}

	for _, want := range []struct{ kind, op string }{
		{audit.KindRenew, core.OpSecureRenew},
		{audit.KindHeartbeat, core.OpHeartbeat},
	} {
		rr := httptest.NewRecorder()
		jnl.DebugHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/audit?kind="+want.kind, nil))
		var page audit.PageJSON
		if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		if len(page.Events) != 1 {
			t.Fatalf("%s: %d audit records for the stale request, want 1: %+v", want.kind, len(page.Events), page.Events)
		}
		if e := page.Events[0]; e.Peer != string(sc.PeerID()) || e.Op != want.op || e.Reason != proto.ErrBadRequest {
			t.Fatalf("%s record = %+v, want peer alice, op %s, reason %s", want.kind, e, want.op, proto.ErrBadRequest)
		}
	}
}
