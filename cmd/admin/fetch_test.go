package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/telemetry"
)

// TestFetchAuditPage: `admin audit` reads the page the journal's handler
// serves, filter included, through every URL form it accepts.
func TestFetchAuditPage(t *testing.T) {
	j, err := audit.Open(audit.Options{Dir: t.TempDir(), SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if seq := j.Record(audit.Event{Kind: audit.KindOffense, Peer: "mallory", Op: "relayRound", Reason: "relay-quota-exceeded"}); seq == 0 {
		t.Fatal("the journal recorded nothing")
	}
	j.Record(audit.Event{Kind: audit.KindLogin, Peer: "alice", Op: "secureLogin"})

	srv := httptest.NewServer(j.DebugHandler())
	defer srv.Close()
	for _, base := range []string{srv.URL, srv.URL + "/debug/audit", srv.Listener.Addr().String()} {
		var page audit.PageJSON
		if err := fetchJSON(context.Background(), base, "/debug/audit", url.Values{"kind": {audit.KindOffense}}, &page); err != nil {
			t.Fatalf("fetch(%q): %v", base, err)
		}
		if page.Seq != 2 || len(page.Events) != 1 || page.Events[0].Peer != "mallory" {
			t.Fatalf("fetch(%q) page: %+v", base, page)
		}
	}
}

// TestFetchMetricsSnapshot: `admin metrics` reads a registry's JSON
// snapshot from the endpoint Serve binds, through every URL form it
// accepts.
func TestFetchMetricsSnapshot(t *testing.T) {
	r := telemetry.New()
	r.CounterFunc("relay_direct_total", "", func() float64 { return 5 })
	r.GaugeFunc("parse_failures_total", "", func() float64 { return 3 })
	srv, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, base := range []string{srv.Addr(), "http://" + srv.Addr(), "http://" + srv.Addr() + "/metrics.json"} {
		var samples []telemetry.Sample
		if err := fetchJSON(ctx, base, "/metrics.json", nil, &samples); err != nil {
			t.Fatalf("fetch(%q): %v", base, err)
		}
		got := map[string]float64{}
		for _, s := range samples {
			got[s.Name] = s.Value
		}
		if got["relay_direct_total"] != 5 || got["parse_failures_total"] != 3 {
			t.Fatalf("fetch(%q) returned %v", base, got)
		}
	}
}

// TestFetchRefusesBadResponses: a status other than 200, and a body that
// is not the JSON asked for, are errors that name the URL.
func TestFetchRefusesBadResponses(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/debug/traces" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte("not json"))
	}))
	defer srv.Close()
	var v any
	for path, want := range map[string]string{"/debug/traces": "404", "/debug/audit": "bad response"} {
		err := fetchJSON(context.Background(), srv.URL+"/", path, nil, &v)
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), srv.URL+path) {
			t.Errorf("%s: err = %v, want %q naming the URL", path, err, want)
		}
	}
}
