package scenario

import (
	"sort"
	"testing"

	"jxtaoverlay/internal/trace"
)

// TestDrainSpikeTraceWaterfall is the tracing acceptance test: a
// drain-spike run with every trace sampled must yield at least one
// COMPLETE message lifecycle — seal and send at the sender, admission,
// parse, verify and slice at the broker, enqueue plus WAL append/fsync
// and the queue wait in the relay, the delivery push, and the
// recipient's open. drain-spike runs on a real WAL, so the durable
// stages are genuinely exercised, not simulated.
func TestDrainSpikeTraceWaterfall(t *testing.T) {
	rec := trace.New(trace.Config{SampleRate: 1, Seed: 42, ShardCap: 8192})
	sum, err := Run("drain-spike", Options{
		Clients: 6, Rounds: 2, Profile: "local",
		Tracer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Anomalies) != 0 {
		t.Fatalf("drain-spike anomalies: %v", sum.Anomalies)
	}

	required := []trace.Stage{
		trace.StageSeal, trace.StageSend,
		trace.StageAdmission, trace.StageParse, trace.StageVerify, trace.StageSlice,
		trace.StageEnqueue, trace.StageWALAppend, trace.StageWALFsync, trace.StageQueueWait,
		trace.StageDeliver, trace.StageOpen,
	}
	byTrace := map[uint64]map[trace.Stage]bool{}
	for _, sp := range rec.Snapshot() {
		m := byTrace[sp.TraceID]
		if m == nil {
			m = make(map[trace.Stage]bool)
			byTrace[sp.TraceID] = m
		}
		m[sp.Stage] = true
	}
	best, bestID := 0, uint64(0)
	for id, stages := range byTrace {
		n := 0
		for _, st := range required {
			if stages[st] {
				n++
			}
		}
		if n > best {
			best, bestID = n, id
		}
		if n == len(required) {
			return // complete waterfall found
		}
	}
	var have []string
	for st := range byTrace[bestID] {
		have = append(have, st.String())
	}
	sort.Strings(have)
	t.Fatalf("no trace covers all %d lifecycle stages; best trace %s covers %d: %v",
		len(required), trace.FormatID(bestID), best, have)
}

// TestDeliveryQuantilesFromClientHistogram pins the Summary's latency
// source: the quantiles must come from the client-library histogram
// (non-zero after real deliveries), with no dependence on message-body
// stamping — the scenario sends plain texts.
func TestDeliveryQuantilesFromClientHistogram(t *testing.T) {
	sum, err := Run("drain-spike", Options{
		Clients: 6, Rounds: 2, Profile: "local",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Anomalies) != 0 {
		t.Fatalf("drain-spike anomalies: %v", sum.Anomalies)
	}
	if sum.Delivered == 0 {
		t.Fatal("no deliveries recorded")
	}
	if sum.P50DeliveryMS <= 0 || sum.P99DeliveryMS <= 0 {
		t.Fatalf("delivery quantiles not observed: p50=%g p99=%g", sum.P50DeliveryMS, sum.P99DeliveryMS)
	}
	if sum.P99DeliveryMS < sum.P50DeliveryMS {
		t.Fatalf("p99 %g < p50 %g", sum.P99DeliveryMS, sum.P50DeliveryMS)
	}
}
