package telemetry

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"jxtaoverlay/internal/perfgate"
)

func TestCounterGaugeSnapshot(t *testing.T) {
	r := New()
	r.CounterFunc("relay_enqueued_total", "items queued", func() float64 { return 4 })
	queued := r.GaugeSum("relay_queued", "items currently queued")
	queued.Attach(func() float64 { return 5 })
	r.GaugeFunc("verify_cache_hits_total", "cache hits", func() float64 { return 42 })

	snap := r.Snapshot()
	want := map[string]float64{
		"relay_enqueued_total":    4,
		"relay_queued":            5,
		"verify_cache_hits_total": 42,
	}
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d samples, want %d", len(snap), len(want))
	}
	for _, s := range snap {
		if want[s.Name] != s.Value {
			t.Errorf("%s = %g, want %g", s.Name, s.Value, want[s.Name])
		}
	}
	// Sorted by name.
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Errorf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
}

func TestCounterIdempotentByName(t *testing.T) {
	r := New()
	a := r.CounterSum("x_total", "")
	b := r.CounterSum("x_total", "")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Attach(func() float64 { return 1 })
	if v, _ := r.Get("x_total"); v != 1 {
		t.Fatal("counter identity broken")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := New()
	r.CounterSum("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.GaugeSum("m", "")
}

func TestGaugeFuncRebind(t *testing.T) {
	// A restarted subsystem re-registers its collectors; the name must
	// follow the live instance, not the dead closure.
	r := New()
	r.GaugeFunc("relay_queued", "", func() float64 { return 1 })
	r.GaugeFunc("relay_queued", "", func() float64 { return 2 })
	if v, _ := r.Get("relay_queued"); v != 2 {
		t.Fatalf("collector not rebound: got %g, want 2", v)
	}
}

func TestSumSourcesComeAndGo(t *testing.T) {
	r := New()
	records := r.GaugeSum("records", "held by the attached caches")
	swept := r.CounterSum("swept_total", "evicted by the attached caches")
	if r.GaugeSum("records", "") != records {
		t.Fatal("GaugeSum not idempotent by name")
	}
	a, b := 3.0, 4.0
	detachA := records.Attach(func() float64 { return a })
	records.Attach(func() float64 { return b })
	detachSweptA := swept.Attach(func() float64 { return a })
	swept.Attach(func() float64 { return b })
	if v, _ := r.Get("records"); v != 7 {
		t.Fatalf("records = %v, want 7", v)
	}
	a = 5
	detachA()
	detachA() // idempotent
	detachSweptA()
	detachSweptA()
	b = 6
	// The gauge forgets a detached source; the counter keeps its last
	// reading and stays monotonic.
	if v, _ := r.Get("records"); v != 6 {
		t.Fatalf("records after detach = %v, want 6", v)
	}
	if v, _ := r.Get("swept_total"); v != 11 {
		t.Fatalf("swept_total after detach = %v, want 5 retired + 6", v)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("delivery_ms", "", []float64{1, 2, 4, 8, 16})
	for i := 0; i < 90; i++ {
		h.Observe(0.5) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(10) // (8,16] bucket
	}
	if p50 := h.Quantile(0.5); p50 > 1 {
		t.Errorf("p50 = %g, want <= 1", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 <= 8 || p99 > 16 {
		t.Errorf("p99 = %g, want in (8,16]", p99)
	}
	if q := h.Quantile(1); q > 16 {
		t.Errorf("p100 = %g, want <= 16", q)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	r := New()
	h := r.Histogram("d", "", []float64{1})
	h.Observe(100)
	if q := h.Quantile(0.99); !(q == 1 || math.IsInf(q, 1)) {
		// Overflow observations clamp to the largest finite bound.
		t.Errorf("overflow quantile = %g", q)
	}
	snap := r.Snapshot()
	if snap[0].Buckets[1] != 1 {
		t.Errorf("overflow bucket = %d, want 1", snap[0].Buckets[1])
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := New()
	r.CounterFunc("ops_total", "dispatched broker operations", func() float64 { return 9 })
	h := r.Histogram("lat_ms", "", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP ops_total dispatched broker operations",
		"# TYPE ops_total counter",
		"ops_total 9",
		`lat_ms_bucket{le="1"} 1`,
		`lat_ms_bucket{le="10"} 2`,
		`lat_ms_bucket{le="+Inf"} 2`,
		"lat_ms_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text exposition missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := New()
	h := r.Histogram("h", "", LatencyBucketsMS)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(float64(j % 50))
				r.Histogram("h", "", LatencyBucketsMS).Observe(1) // registration race path
			}
		}()
	}
	done := make(chan struct{})
	go func() { // concurrent snapshots
		for {
			select {
			case <-done:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)
	if v, _ := r.Get("h"); v != 16000 {
		t.Fatalf("observations = %g, want 16000", v)
	}
}

// The inline instrument is what an instrumented hot path pays per
// event, so it is held to nanoseconds and no allocation at all: free,
// next to the microsecond-scale paths it measures.

func BenchmarkHistogramObserve(b *testing.B) {
	h := New().Histogram("bench_latency_ms", "benchmark instrument", LatencyBucketsMS)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 400))
	}
}

func TestGateHistogramObserve(t *testing.T) { perfgate.Run(t, BenchmarkHistogramObserve, 0, 150) }
