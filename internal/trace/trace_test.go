package trace

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/perfgate"
)

func TestSamplingDeterminism(t *testing.T) {
	// Same seed => same minted IDs and same sampled set; scenario runs
	// that fix a seed must capture identical traces run-to-run.
	a := New(Config{SampleRate: 0.25, Seed: 42})
	b := New(Config{SampleRate: 0.25, Seed: 42})
	c := New(Config{SampleRate: 0.25, Seed: 43})

	var idsA, idsB []uint64
	diverged := false
	for i := 0; i < 4096; i++ {
		ia, ib := a.NewID(), b.NewID()
		if ia != ib {
			t.Fatalf("id %d: seed-42 recorders minted %x vs %x", i, ia, ib)
		}
		if a.Sampled(ia) != b.Sampled(ib) {
			t.Fatalf("id %x: sampling decision differs for same seed", ia)
		}
		if a.Sampled(ia) != c.Sampled(ia) {
			diverged = true
		}
		idsA = append(idsA, ia)
		idsB = append(idsB, ib)
	}
	if !diverged {
		t.Fatal("seed 43 sampled the exact same set as seed 42 over 4096 ids")
	}

	// Rate sanity: ~25% of well-spread IDs should be sampled.
	n := 0
	for _, id := range idsA {
		if a.Sampled(id) {
			n++
		}
	}
	if n < len(idsA)/8 || n > len(idsA)/2 {
		t.Fatalf("sample rate 0.25 kept %d of %d ids", n, len(idsA))
	}
	_ = idsB
}

func TestSampleRateBounds(t *testing.T) {
	all := New(Config{SampleRate: 1, Seed: 7})
	none := New(Config{SampleRate: 0, Seed: 7})
	for i := 0; i < 1000; i++ {
		id := all.NewID()
		if !all.Sampled(id) {
			t.Fatalf("rate 1.0 skipped id %x", id)
		}
		if none.Sampled(id) {
			t.Fatalf("rate 0 sampled id %x", id)
		}
	}
	if none.Sampled(0) || all.Sampled(0) {
		t.Fatal("zero trace ID must never be sampled")
	}
}

func TestForcedCaptureOnAnomaly(t *testing.T) {
	r := New(Config{SampleRate: 0, Seed: 1}) // head sampling off entirely
	id := r.NewID()

	// An OK span on an unsampled trace is not kept.
	if r.End(Begin(id, StageSend), OutcomeOK) {
		t.Fatal("unsampled OK span was recorded")
	}
	// An anomalous outcome forces capture...
	if !r.End(Begin(id, StageAdmission), OutcomeRateLimited) {
		t.Fatal("rate-limited span was not force-captured")
	}
	// ...and extends to later stages of the same trace.
	if !r.End(Begin(id, StageOpen), OutcomeOK) {
		t.Fatal("post-anomaly span of a forced trace was dropped")
	}
	// Other traces stay unsampled.
	if r.End(Begin(r.NewID(), StageOpen), OutcomeOK) {
		t.Fatal("unrelated trace rode along with the forced one")
	}

	spans := r.TraceSpans(id)
	if len(spans) != 2 {
		t.Fatalf("TraceSpans: got %d spans, want 2", len(spans))
	}
	if spans[0].Stage != StageAdmission || spans[0].Outcome != OutcomeRateLimited {
		t.Fatalf("first captured span = %s/%s", spans[0].Stage, spans[0].Outcome)
	}
}

func TestSlowThresholdForcesCapture(t *testing.T) {
	r := New(Config{SampleRate: 0, SlowThreshold: time.Millisecond, Seed: 1})
	id := r.NewID()
	fast := Span{TraceID: id, Stage: StageParse, Start: 1, Duration: int64(time.Microsecond)}
	if r.Record(fast) {
		t.Fatal("fast span recorded with sampling off")
	}
	slow := Span{TraceID: id, Stage: StageParse, Start: 1, Duration: int64(2 * time.Millisecond)}
	if !r.Record(slow) {
		t.Fatal("slow span not force-captured")
	}
}

func TestAttrRejectsOversizedAndBinary(t *testing.T) {
	var sp Span
	sp.SetAttr("op", "relayRound")
	if sp.AttrCount() != 1 {
		t.Fatal("plain attr rejected")
	}
	// Oversized value: rejected, not truncated.
	sp.SetAttr("big", strings.Repeat("x", MaxAttrBytes+1))
	// Binary value (ciphertext-shaped): rejected.
	sp.SetAttr("bin", string([]byte{0x01, 0x9f, 0x00}))
	// Control characters: rejected.
	sp.SetAttr("ctl", "line1\nline2")
	// Binary key: rejected.
	sp.SetAttr(string([]byte{0xff}), "v")
	if sp.AttrCount() != 1 {
		t.Fatalf("invalid attrs accepted: %d attrs, want 1", sp.AttrCount())
	}
	// Capacity bound: the array never grows.
	sp.SetAttr("err", "rate-limited")
	sp.SetAttr("overflow", "dropped")
	if sp.AttrCount() != maxAttrs {
		t.Fatalf("attr capacity: got %d, want %d", sp.AttrCount(), maxAttrs)
	}
}

func TestRingOverwriteCountsDrops(t *testing.T) {
	r := New(Config{SampleRate: 1, Shards: 1, ShardCap: 8, Seed: 1})
	id := r.NewID()
	for i := 0; i < 20; i++ {
		r.Record(Span{TraceID: id, Stage: StageSend, Start: int64(i), Duration: 1})
	}
	rec, dropped := r.Stats()
	if rec != 20 {
		t.Fatalf("recorded = %d, want 20", rec)
	}
	if dropped != 12 {
		t.Fatalf("dropped = %d, want 12", dropped)
	}
	if got := len(r.Snapshot()); got != 8 {
		t.Fatalf("snapshot holds %d spans, want ring cap 8", got)
	}
}

func TestSnapshotOrdered(t *testing.T) {
	r := New(Config{SampleRate: 1, Shards: 4, Seed: 9})
	ids := []uint64{r.NewID(), r.NewID(), r.NewID()}
	for i, id := range ids {
		r.Record(Span{TraceID: id, Stage: StageOpen, Start: int64(100 - i), Duration: 1})
		r.Record(Span{TraceID: id, Stage: StageSeal, Start: int64(100 - i), Duration: 1})
	}
	snap := r.Snapshot()
	for i := 1; i < len(snap); i++ {
		a, b := snap[i-1], snap[i]
		if a.Start > b.Start {
			t.Fatalf("snapshot not start-ordered at %d", i)
		}
		if a.Start == b.Start && a.TraceID == b.TraceID && a.Stage > b.Stage {
			t.Fatalf("same-instant spans not in stage order at %d", i)
		}
	}
}

func TestIDRoundTrip(t *testing.T) {
	r := New(Config{Seed: 5})
	for i := 0; i < 100; i++ {
		id := r.NewID()
		if id == 0 {
			t.Fatal("NewID minted zero")
		}
		if got := ParseID(FormatID(id)); got != id {
			t.Fatalf("round trip: %x -> %q -> %x", id, FormatID(id), got)
		}
	}
	for _, bad := range []string{"", "xyz", "12345678901234567", "0x12", "-1"} {
		if ParseID(bad) != 0 {
			t.Fatalf("ParseID(%q) != 0", bad)
		}
	}
}

func TestNilRecorderIsFree(t *testing.T) {
	var r *Recorder
	if r.NewID() != 0 || r.Sampled(1) || r.End(Begin(1, StageSeal), OutcomeOK) {
		t.Fatal("nil recorder did something")
	}
	r.Force(1)
	if r.Snapshot() != nil {
		t.Fatal("nil recorder snapshotted")
	}
	rec, drop := r.Stats()
	if rec != 0 || drop != 0 {
		t.Fatal("nil recorder has stats")
	}
}

// TestConcurrentWritesVsDebugReads hammers the rings from writer
// goroutines while readers scrape /debug/traces — the -race CI jobs
// turn this into a data-race proof for the ring/mutex scheme.
func TestConcurrentWritesVsDebugReads(t *testing.T) {
	r := New(Config{SampleRate: 1, Shards: 4, ShardCap: 128, Seed: 3})
	srv := httptest.NewServer(r.DebugHandler())
	defer srv.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := r.NewID()
				sp := Begin(id, StageEnqueue)
				sp.SetAttr("op", "relayRound")
				r.End(sp, OutcomeOK)
				r.End(Begin(id, StageDeliver), OutcomeQuota)
			}
		}()
	}
	client := srv.Client()
	for i := 0; i < 25; i++ {
		resp, err := client.Get(srv.URL + "?outcome=relay-quota-exceeded")
		if err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		var page PageJSON
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatalf("scrape %d: bad JSON: %v", i, err)
		}
		resp.Body.Close()
		for _, sp := range page.Spans {
			if sp.Outcome != "relay-quota-exceeded" {
				t.Fatalf("outcome filter leaked %q", sp.Outcome)
			}
		}
	}
	close(stop)
	wg.Wait()

	// Filter checks on a quiesced recorder.
	resp, err := client.Get(srv.URL + "?stage=deliver&limit=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page PageJSON
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if len(page.Spans) == 0 || len(page.Spans) > 5 {
		t.Fatalf("stage filter + limit returned %d spans", len(page.Spans))
	}
	for _, sp := range page.Spans {
		if sp.Stage != "deliver" {
			t.Fatalf("stage filter leaked %q", sp.Stage)
		}
	}
}

func TestStageOutcomeNames(t *testing.T) {
	for s := Stage(0); s < stageCount; s++ {
		name := s.String()
		got, ok := ParseStage(name)
		if !ok || got != s {
			t.Fatalf("stage %d name %q does not round-trip", s, name)
		}
	}
	for o := Outcome(0); o < outcomeCount; o++ {
		name := o.String()
		got, ok := ParseOutcome(name)
		if !ok || got != o {
			t.Fatalf("outcome %d name %q does not round-trip", o, name)
		}
	}
	if OutcomeError.Anomalous() || OutcomeOK.Anomalous() {
		t.Fatal("ok/error must not force capture")
	}
	for _, o := range []Outcome{OutcomeRateLimited, OutcomeQuota, OutcomeWALError, OutcomeAlert} {
		if !o.Anomalous() {
			t.Fatalf("%s must force capture", o)
		}
	}
}

// The span recorder at its three operating points. Unsampled is what
// every instrumented operation pays when its trace lost the sampling
// decision: two clock reads, the seeded hash compare and one atomic
// load. Sampled adds the write into a preallocated ring under a shard
// mutex. Neither may allocate. Reading a full 4096-span ring, the
// /debug/traces scrape, builds a sorted copy and is held on time only.

func benchSpan(b *testing.B, cfg Config) {
	rec := New(cfg)
	id := rec.NewID()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := Begin(id, StageSend)
		rec.End(sp, OutcomeOK)
	}
}

func BenchmarkSpanUnsampled(b *testing.B) { benchSpan(b, Config{SampleRate: 0, Seed: 42}) }
func BenchmarkSpanSampled(b *testing.B) {
	benchSpan(b, Config{SampleRate: 1, Seed: 42, Shards: 4, ShardCap: 4096})
}

func BenchmarkRingRead(b *testing.B) {
	rec := New(Config{SampleRate: 1, Seed: 42, Shards: 4, ShardCap: 1024})
	for i := 0; i < 4096; i++ {
		sp := Begin(rec.NewID(), StageSend)
		rec.End(sp, OutcomeOK)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := rec.Snapshot(); len(s) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

func TestGateSpanUnsampled(t *testing.T) { perfgate.Run(t, BenchmarkSpanUnsampled, 0, 500) }
func TestGateSpanSampled(t *testing.T)   { perfgate.Run(t, BenchmarkSpanSampled, 0, 1000) }
func TestGateRingRead(t *testing.T)      { perfgate.Run(t, BenchmarkRingRead, perfgate.NoLimit, 20e6) }
