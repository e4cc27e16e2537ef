package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuartilesFollowPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(v)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if !near(q1, 1.5) || !near(q2, 4) || !near(q3, 12) {
		t.Fatalf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestMedianAndNearestRankQuantile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd count = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}} {
		if got := quantile(sorted, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v (a measured value, nearest rank)", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty input must read 0")
	}
}

func TestReliableTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		samples int
		want    string
	}{{19, "p50"}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {9999, "p99"}, {10000, "p999"}} {
		if got, _ := reliableTail(c.samples); got != c.want {
			t.Errorf("reliableTail(%d) = %s, want %s", c.samples, got, c.want)
		}
	}
}

func TestTickIsWeightedGeometricMean(t *testing.T) {
	samples := []sample{
		{alu: 300 * time.Microsecond, mem: 100 * time.Microsecond},
		{alu: 400 * time.Microsecond, mem: 200 * time.Microsecond},
		{alu: 900 * time.Microsecond, mem: 250 * time.Microsecond}, // one stall moves neither median
	}
	tick, alu, mem := tickOf(samples, 0.75)
	if !near(alu, 400e-6) || !near(mem, 200e-6) {
		t.Fatalf("medians = %v %v, want 400e-6 200e-6", alu, mem)
	}
	if want := math.Pow(400e-6, 0.75) * math.Pow(200e-6, 0.25); !near(tick, want) {
		t.Fatalf("tick = %v, want %v", tick, want)
	}
	if only, _, _ := tickOf(samples, 1); !near(only, 400e-6) {
		t.Fatalf("aluShare 1 must be the signature alone, got %v", only)
	}
	if tick, _, _ := tickOf(nil, 0.5); tick != 0 {
		t.Fatal("no samples, no tick")
	}
	// At the reference tick a set-up reads as the clock saw it; on a
	// machine twice as slow, half.
	ref := math.Pow(400e-6, 0.75) * math.Pow(200e-6, 0.25)
	if got := setupSeconds(2, 0, ref, 0.75); !near(got, 2) {
		t.Fatalf("setupSeconds at the reference tick = %v, want 2", got)
	}
	if got := setupSeconds(2, 0, 2*ref, 0.75); !near(got, 1) {
		t.Fatalf("setupSeconds at twice the reference tick = %v, want 1", got)
	}
	// What the hypervisor took is taken out first, stealStall times over.
	if got := setupSeconds(2, 0.2, ref, 0.75); !near(got, 2-stealStall*0.2) {
		t.Fatalf("setupSeconds with 0.2 s stolen = %v, want %v", got, 2-stealStall*0.2)
	}
}

// window builds a windowStats whose every op took lat.
func window(deliveries, ops int, wall, cpu, lat time.Duration, tick float64) windowStats {
	w := windowStats{wall: wall, cpu: cpu, tick: tick, running: 1, mallocs: uint64(100 * deliveries), bytes: uint64(2048 * deliveries), wire: uint64(1000 * deliveries)}
	w.attempted, w.deliveries = ops, deliveries
	for i := 0; i < ops; i++ {
		w.lat = append(w.lat, lat)
	}
	return w
}

func TestEndToEndArithmetic(t *testing.T) {
	r := &result{setupS: []float64{0.3, 0.1, 0.2}}
	// Three windows of 1000 deliveries; the middle one ran on a machine
	// twice as slow (tick doubled) and took twice as long: in ticks it
	// is the same window. The third lost time to something else.
	r.phase.windows = []windowStats{
		window(1000, 1000, time.Second, 2*time.Second, 2*time.Millisecond, 1e-3),
		window(1000, 1000, 2*time.Second, 4*time.Second, 4*time.Millisecond, 2e-3),
		window(1000, 1000, 3*time.Second, 2*time.Second, 2*time.Millisecond, 1e-3),
	}
	r.phase.heapLiveMB = 12.5
	m := r.endToEnd()
	want := map[string]float64{
		"setup_s":           0.2,
		"goodput_per_ktick": 1000, // 1000 deliveries in 1000 ticks, the median window
		"latency_p50_ticks": 2,
		"cpu_ticks_per_op":  2,
		"allocs_per_op":     100,
		"alloc_kb_per_op":   2,
		"wire_bytes_per_op": 1000,
		"heap_live_mb":      12.5,
	}
	for k, v := range want {
		if !near(m[k], v) {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	if len(m) != len(endToEndMetrics) {
		t.Errorf("endToEnd renders %d metrics, the contract has %d", len(m), len(endToEndMetrics))
	}
	// A window that lost 20 % of its wall clock to the hypervisor states
	// its median op 20 % shorter.
	stolen := window(1000, 1000, time.Second, 2*time.Second, 2*time.Millisecond, 1e-3)
	stolen.running = 0.8
	r.phase.windows = []windowStats{stolen}
	if got := r.endToEnd()["latency_p50_ticks"]; !near(got, 1.6) {
		t.Errorf("latency net of steal = %v, want 1.6", got)
	}
}

func TestFailedOpAccounting(t *testing.T) {
	bodies := makeBodies(newRand(1), 0, 4, 64)
	tr := newTracker(bodies)
	tr.reset(4, 3, nil)
	now := time.Now()

	// op 0: both recipients open it, once each.
	body := tr.begin(0, now, 2, 2)
	tr.deliver(0, 0, []byte(body))
	tr.deliver(1, 0, []byte(body))
	if !tr.wait(0) {
		t.Fatal("op 0 must complete when its awaited opens are in")
	}
	// the same recipient opens it again: a duplicate.
	tr.deliver(1, 0, []byte(body))
	// op 1: one open never arrives; one arrives corrupted.
	body = tr.begin(1, now, 2, 2)
	tr.deliver(0, 1, []byte(body))
	tr.deliver(1, 1, []byte(body[:len(body)-1]+"!"))
	tr.park()
	// a delivery for an op that was never sent.
	tr.deliver(2, 3, []byte(bodies[3]))

	c := tr.counts()
	if c.delivered != 3 || c.duplicate != 1 || c.corrupt != 1 || c.unexpected != 1 || c.pending != 1 {
		t.Fatalf("counts = %+v, want 3 delivered, 1 duplicate, 1 corrupt, 1 unexpected, 1 pending", c)
	}
	res := windowResult{attempted: 2}
	applyTrackers(&res, []*tracker{tr})
	if res.deliveries != 3 || res.failed != 2 {
		t.Fatalf("window = %d deliveries, %d failed; want 3 and 2 (never more than attempted)", res.deliveries, res.failed)
	}

	// The watchdog fails an op that has been in flight too long.
	tr.reset(1, 1, nil)
	tr.begin(0, now.Add(-2*opTimeout), 1, 1)
	tr.expire(now)
	if tr.wait(0) {
		t.Fatal("an expired op must not count as completed")
	}

	// Totals and correctness: failures and violations both spoil a run.
	r := &result{}
	r.phase.windows = []windowStats{{windowResult: windowResult{attempted: 10, deliveries: 10}}, {windowResult: windowResult{attempted: 10, failed: 3, deliveries: 7, detail: "x"}}}
	if a, f, d, detail := r.totals(); a != 20 || f != 3 || d != 17 || detail != "x" {
		t.Fatalf("totals = %d %d %d %q", a, f, d, detail)
	}
	if (violations{}).any() || !(violations{NetDropped: 1}).any() {
		t.Fatal("violations.any is wrong")
	}
}

func TestBodyHeaderRoundTrip(t *testing.T) {
	for flow := 0; flow < flows; flow++ {
		for i, b := range makeBodies(newRand(7), flow, 3, 64) {
			f, r, ok := parseBodyHeader([]byte(b))
			if !ok || f != flow || r != i || len(b) != 64 {
				t.Fatalf("body %q parsed as flow %d ring %d ok %v", b[:12], f, r, ok)
			}
		}
	}
	if _, _, ok := parseBodyHeader([]byte("short")); ok {
		t.Fatal("a short body has no header")
	}
	if a, b := makeBodies(newRand(3), 0, 2, 64), makeBodies(newRand(3), 0, 2, 64); a[1] != b[1] {
		t.Fatal("the same seed must give the same bodies")
	}
}

var unitRule = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNamesFollowTheContract(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name, unit, better string) {
		if !metricName.MatchString(name) {
			t.Errorf("%s metric name %q breaks the rule (letter or digit first; letters, digits, _ . -; at most 64)", kind, name)
		}
		if !unitRule.MatchString(unit) {
			t.Errorf("%s metric %s has unit %q", kind, name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s metric %s is better %q", kind, name, better)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, s := range specs {
		check("workload", s.name, "x", "lower")
		if len(s.why) > 200 || bytes.ContainsRune([]byte(s.why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", s.name)
		}
		if s.aluShare <= 0 || s.aluShare > 1 {
			t.Errorf("workload %s: aluShare %v outside (0, 1]", s.name, s.aluShare)
		}
	}
	setup := false
	for _, d := range endToEndMetrics {
		check("end-to-end", d.Name, d.Unit, d.Better)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("the contract requires setup_s, in s, lower is better")
	}
	for _, d := range perLayerMetrics {
		check("per-layer", d.Name, d.Unit, d.Better)
	}
	if n := len(perLayerMetrics); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 1 to 128", n)
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "ü"} {
		if metricName.MatchString(bad) {
			t.Errorf("name rule accepts %q", bad)
		}
	}
}

func TestBenchmarkJSONMatchesTheBinary(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeContract(&want, float64(onDisk.RunSeconds)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(data), bytes.TrimSpace(want.Bytes())) {
		t.Fatal("BENCHMARK.json differs from what this binary defines; regenerate it with: bash cmd/perf/run.sh -describe > BENCHMARK.json")
	}
	if len(data) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, the contract allows 64 KiB", len(data))
	}
}

// TestSmokeEveryWorkload runs every workload at tiny counts and checks
// that the result line carries every metric of BENCHMARK.json exactly
// once, with its unit, and that nothing failed.
func TestSmokeEveryWorkload(t *testing.T) {
	scratch := t.TempDir()
	for i, sp := range specs {
		cfg := config{spec: sp, seed: int64(i + 1), seconds: 0.2, scratch: scratch, windows: 2, setups: 1}
		// The per-layer pass is exercised once, on the cheapest workload.
		modes := []bool{false}
		if sp.name == "unicast" {
			modes = append(modes, true)
		}
		for _, traced := range modes {
			cfg.trace = traced
			r, err := run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", sp.name, err)
			}
			var out bytes.Buffer
			if !emit(&out, r) {
				t.Errorf("%s: run not correct:\n%s", sp.name, out.String())
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			// Decoding into a map would fold a repeated key; the raw line must
			// name each metric once.
			last := lines[len(lines)-1]
			var line resultLine
			if err := json.Unmarshal(last, &line); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", sp.name, err)
			}
			defs := endToEndMetrics
			if traced {
				defs = perLayerMetrics
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s: %d metrics printed, contract has %d", sp.name, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				got, ok := line.Metrics[d.Name]
				if !ok || got.Unit != d.Unit {
					t.Errorf("%s: metric %s printed as %+v (present %v), want unit %s", sp.name, d.Name, got, ok, d.Unit)
				}
				if n := bytes.Count(last, []byte(`"`+d.Name+`":`)); n != 1 {
					t.Errorf("%s: metric %s appears %d times in the result line", sp.name, d.Name, n)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: gated metric %s is %v; gated metrics are never 0", sp.name, d.Name, got.Value)
				}
			}
			if line.Attempted < 1 || line.Failed != 0 || !line.Correct {
				t.Errorf("%s: attempted %d failed %d correct %v", sp.name, line.Attempted, line.Failed, line.Correct)
			}
		}
	}
	if left, _ := os.ReadDir(scratch); len(left) != 0 {
		t.Errorf("%d scratch directories left behind", len(left))
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := &joinChurn{runCtx: &runCtx{seed: 5}}, &joinChurn{runCtx: &runCtx{seed: 5}}
	ua, ub := a.users(), b.users()
	for i := range ua {
		if ua[i].alias != ub[i].alias || ua[i].groups[0] != ub[i].groups[0] {
			t.Fatalf("seed 5 gave different user %d: %v vs %v", i, ua[i], ub[i])
		}
	}
	c := &joinChurn{runCtx: &runCtx{seed: 6}}
	same := true
	for i, u := range c.users() {
		same = same && u.alias == ua[i].alias
	}
	if same {
		t.Fatal("another seed must order the churn pool differently")
	}
}
