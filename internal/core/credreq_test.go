package core_test

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/proto"
)

// TestStaleRenewAndHeartbeatAuditedAlike: a heartbeat whose timestamp is
// ten minutes off the broker clock — sent by the lease's peer, signed with
// the key of the credential the lease holds — is refused AND audited
// against that peer. (The name is kept from when a credential renewal
// shared the heartbeat's verifier.) Every heartbeat refusal still counts
// in LivenessStats.
func TestStaleRenewAndHeartbeatAuditedAlike(t *testing.T) {
	h := newLeaseHarness(t)
	jnl, err := audit.Open(audit.Options{Dir: t.TempDir(), SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() })
	h.br.SetAuditor(jnl)
	sc := h.secureClient("alice")
	h.join(sc, "pw-alice")

	h.advance(10 * time.Minute) // the client stamps wall time: now 10 min stale
	if err := sc.SecureHeartbeat(testCtx(t)); err == nil {
		t.Fatal("stale heartbeat accepted")
	}
	if got := h.brSec.LivenessStats().HeartbeatsRejected; got != 1 {
		t.Fatalf("HeartbeatsRejected = %d, want 1", got)
	}

	rr := httptest.NewRecorder()
	jnl.DebugHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/audit?kind="+audit.KindHeartbeat, nil))
	var page audit.PageJSON
	if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 1 {
		t.Fatalf("%d audit records for the stale heartbeat, want 1: %+v", len(page.Events), page.Events)
	}
	if e := page.Events[0]; e.Peer != string(sc.PeerID()) || e.Op != core.OpHeartbeat || e.Reason != proto.ErrBadRequest {
		t.Fatalf("record = %+v, want peer alice, op %s, reason %s", e, core.OpHeartbeat, proto.ErrBadRequest)
	}
}
