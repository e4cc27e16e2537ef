package core_test

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/trace"
)

// TestSecurityAlertCarriesRetrievableAuditSeq pins the alert → journal →
// trace round-trip: a SecurityAlert raised for a replayed slice carries
// BOTH the audit sequence number and the trace ID; the sequence
// retrieves the matching tamper-evident record through the /debug/audit
// query surface, and that record's trace field retrieves the span
// waterfall from the recorder. One refusal, three correlated surfaces.
func TestSecurityAlertCarriesRetrievableAuditSeq(t *testing.T) {
	h := newSecureHarness(t, true)
	rec := trace.New(trace.Config{SampleRate: 0, Seed: 7})
	h.br.SetTracer(rec)
	rly, err := core.EnableBrokerRelay(h.br, core.RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rly.Close() })

	jnl, err := audit.Open(audit.Options{Dir: t.TempDir(), SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() })

	alice := h.secureClient("alice")
	bob := h.secureClient("bob", core.WithReplayGuard(core.NewReplayGuard(time.Minute, 64)))
	alice.SetTracer(rec)
	bob.SetTracer(rec)
	bob.SetAuditor(jnl)
	h.join(alice, "pw-alice")
	h.join(bob, "pw-bob")
	bobEvents := events.NewCollector(bob.Bus())

	eve := attack.NewEavesdropper(h.net)
	ctx := testCtx(t)
	if _, _, err := alice.SecureMsgPeersViaRelay(ctx, "math", "pay invoice 42", []keys.PeerID{bob.PeerID()}); err != nil {
		t.Fatal(err)
	}
	if _, ok := bobEvents.WaitFor(events.SecureMessage, 5*time.Second); !ok {
		t.Fatal("original slice not delivered")
	}

	raw, err := attack.NewRawNode(h.net, "replayer")
	if err != nil {
		t.Fatal(err)
	}
	bobNode := simnet.NodeID(bob.PeerID())
	for _, frame := range eve.FramesTo(bobNode) {
		if err := raw.Replay(bobNode, frame); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := bobEvents.WaitFor(events.SecurityAlert, 5*time.Second); !ok {
		t.Fatal("replayed slice raised no alert")
	}

	var seqStr, traceStr string
	for _, e := range bobEvents.OfType(events.SecurityAlert) {
		if e.Payload["audit"] != "" {
			seqStr, traceStr = e.Payload["audit"], e.Payload["trace"]
			break
		}
	}
	if seqStr == "" {
		t.Fatal("no SecurityAlert carried an audit sequence number")
	}
	seq, err := strconv.ParseUint(seqStr, 10, 64)
	if err != nil || seq == 0 {
		t.Fatalf("alert audit seq %q does not parse", seqStr)
	}

	// Surface 2: the sequence selects the record via /debug/audit.
	rr := httptest.NewRecorder()
	jnl.DebugHandler().ServeHTTP(rr, httptest.NewRequest("GET",
		"/debug/audit?since="+strconv.FormatUint(seq-1, 10)+"&limit=1", nil))
	var page audit.PageJSON
	if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 1 || page.Events[0].Seq != seq {
		t.Fatalf("audit seq %d not retrievable: %+v", seq, page.Events)
	}
	recJSON := page.Events[0]
	if recJSON.Kind != audit.KindOpenFail || recJSON.Peer != string(alice.PeerID()) {
		t.Fatalf("audit record %+v does not describe alice's replayed slice", recJSON)
	}
	if recJSON.Trace != traceStr {
		t.Fatalf("audit record trace %q != alert trace %q", recJSON.Trace, traceStr)
	}

	// Surface 3: the record's trace ID retrieves the span waterfall.
	id := trace.ParseID(recJSON.Trace)
	if id == 0 {
		t.Fatalf("audit record trace %q does not parse", recJSON.Trace)
	}
	spans := rec.TraceSpans(id)
	if len(spans) == 0 {
		t.Fatalf("trace %s from audit record not retrievable", recJSON.Trace)
	}
	found := false
	for _, sp := range spans {
		if sp.Stage == trace.StageOpen && sp.Outcome == trace.OutcomeAlert {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %s has no open span with outcome %s", recJSON.Trace, trace.OutcomeAlert)
	}
}
