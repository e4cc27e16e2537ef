package scenario

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"jxtaoverlay/internal/telemetry"
)

// Each scenario runs at a small scale and must finish with an empty
// anomaly list: the scenarios are the CI gate, so a red run here means
// either the stack or the gate itself regressed.
func TestScenariosCleanAtSmallScale(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sum, err := Run(name, Options{Clients: 5, Rounds: 2, Profile: "local"})
			if err != nil {
				t.Fatal(err)
			}
			if len(sum.Anomalies) != 0 {
				t.Fatalf("anomalies: %v", sum.Anomalies)
			}
			if sum.Scenario != name {
				t.Fatalf("summary names %q", sum.Scenario)
			}
			if sum.Delivered == 0 {
				t.Fatal("no delivered work recorded")
			}
			if sum.DurationSec <= 0 || sum.RoundsPerSec <= 0 {
				t.Fatalf("throughput not measured: dur=%v rps=%v", sum.DurationSec, sum.RoundsPerSec)
			}
		})
	}
}

// The JSON field set is a CI contract: jq expressions in the workflow
// read these exact keys, so their presence is pinned here. New fields
// may be added; these may never go away.
func TestSummarySchemaStable(t *testing.T) {
	sum, err := Run("join-storm", Options{Clients: 3, Profile: "local"})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"scenario", "profile", "clients", "rounds", "duration_sec",
		"rounds_per_sec", "delivered", "p50_delivery_ms", "p99_delivery_ms",
		"drops", "hostile_rejected", "alerts", "anomalies",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("summary JSON lost contract key %q", key)
		}
	}
	// The gate key must round-trip as an array even when empty — a null
	// would make `jq '.anomalies | length'` lie.
	if _, ok := m["anomalies"].([]any); !ok {
		t.Errorf("anomalies is %T, want JSON array", m["anomalies"])
	}
}

// A run with a registry wired in exposes the stack's counters through
// the telemetry snapshot — the same path `overlaysim -metrics` serves.
func TestScenarioFeedsTelemetry(t *testing.T) {
	reg := telemetry.New()
	sum, err := Run("drain-spike", Options{Clients: 5, Rounds: 2, Profile: "local", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", sum.Anomalies)
	}
	// Collectors registered by the run read live state; after close they
	// still answer from the final counters.
	flushed, ok := reg.Get("relay_delivered_flushed_total")
	if !ok {
		t.Fatal("relay collectors not registered")
	}
	if flushed == 0 {
		t.Fatal("drain-spike flushed nothing through the relay")
	}
	if v, ok := reg.Get("broker_ops_dispatched_total"); !ok || v == 0 {
		t.Fatalf("broker collectors not live: %v %v", v, ok)
	}
}

func TestUnknownScenarioRejected(t *testing.T) {
	if _, err := Run("no-such-scenario", Options{}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// A scenario that enables presence leases must stop the lease sweeper
// when it closes its stack: afterwards no sweepLeases goroutine is left
// and the leases of the closed clients are never expired. Not parallel:
// it reads every goroutine's stack, and a partition-churn run beside it
// would have a sweeper of its own.
func TestPartitionChurnStopsLeaseSweeper(t *testing.T) {
	reg := telemetry.New()
	sum, err := Run("partition-churn", Options{Clients: 4, Rounds: 1, Profile: "local", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", sum.Anomalies)
	}
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "sweepLeases") {
		t.Error("a lease sweeper is still running after the scenario closed its stack")
	}
	expired, ok := reg.Get("core_leases_expired_total")
	if !ok {
		t.Fatal("liveness collectors not registered")
	}
	// The closed clients' leases (TTL 2s, swept every 500ms) lapse now.
	time.Sleep(3 * time.Second)
	if after, _ := reg.Get("core_leases_expired_total"); after != expired {
		t.Errorf("leases expired after close: %v -> %v", expired, after)
	}
}
