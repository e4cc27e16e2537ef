package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"jxtaoverlay/internal/trace"
)

// A run builds the whole deployment at least minSetups times and then
// again until setupBudget is spent (a unicast set-up takes 70 ms, a
// group's 450 ms); setup_s is the median, so two slow starts do not
// decide it.
const (
	minSetups    = 5
	maxSetups    = 9
	setupBudget  = 2 * time.Second
	setupSamples = 8 // canary samples taken before and after each set-up
)

// setupSeconds states a set-up's duration at the reference tick. The
// contract wants setup_s in seconds, and raw seconds of the same set-up
// differ by half between this machine's calm minutes and its busy ones
// (canary.go); a later change that moves work into set-up must show
// against that. So the raw time is scaled by how far the ticks around
// the set-up were from a fixed reference (a 400 µs signature, a 200 µs
// copy-and-hash: this machine's middle), after what the hypervisor took
// during the set-up has been taken out as it is out of a window's wall
// (stealStall). The raw seconds and the steal are printed beside it.
func setupSeconds(raw, steal, tick, aluShare float64) float64 {
	net := raw - stealStall*steal
	if tick == 0 {
		return net
	}
	ref := math.Pow(400e-6, aluShare) * math.Pow(200e-6, 1-aluShare)
	return net * ref / tick
}

// config is one run.
type config struct {
	spec    spec
	seed    int64
	seconds float64 // scales op counts; 10 is the reference
	trace   bool    // also run the per-layer pass
	scratch string  // root for per-run scratch directories
	spans   string  // file the traced pass writes its spans to ("" = none)
	// windows and setups default to the protocol's (20 windows, set-ups
	// by budget); tests shrink them.
	windows int
	setups  int
}

func (c config) opsPerFlow() int {
	n := int(math.Round(float64(c.spec.opsPerWindow) * c.seconds / 10 / flows))
	return max(n, 1)
}

// snapshot is everything the harness reads around a window.
type snapshot struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	wire    uint64
	packets uint64
	gcs     uint32
	pauseNS uint64
	steal   time.Duration
}

// stealStall is how much of a window's wall clock one second of
// per-vCPU steal costs. A stolen slice costs more than its own length:
// the flow on the other vCPU soon waits for the stalled one too (a
// garbage collection's stop, a hand-over to a goroutine queued there).
// Over 400 windows per workload the wall grew by 1.5–2.6 × the per-vCPU
// steal, and taking out 1.5 × left the smallest spread between runs on
// every workload (README, "Steal").
const stealStall = 1.5

// stolen reads how long the hypervisor has run something else on this
// machine's vCPUs (the steal column of /proc/stat, all CPUs summed).
// On this host that is 4–20 % of a window and it lands on the wall
// clock alone, so goodput is reported net of it. Where the file or the
// column is missing it reads 0 and the wall is used as it is.
func stolen() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal …
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}

// userHZ is the kernel's USER_HZ, the unit of /proc/stat: 100 on every
// Linux architecture Go runs on.
const userHZ = 100

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSnapshot(e *env) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := e.net.Stats()
	return snapshot{
		cpu: processCPU(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		wire: st.Bytes, packets: st.Sent, gcs: ms.NumGC, pauseNS: ms.PauseTotalNs,
		steal: stolen(), at: time.Now(),
	}
}

// windowStats is one measured window.
type windowStats struct {
	windowResult
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	wire    uint64
	packets uint64
	gcs     uint32
	pauseNS uint64
	steal   time.Duration // per vCPU; stealStall × this is already out of wall
	running float64       // share of the window's wall clock the hypervisor left us
	tick    float64       // seconds; see canary.go
	aluTick float64       // seconds; median signature
	memTick float64       // seconds; median copy-and-hash
}

// phase is the timed phase of one run.
type phase struct {
	windows    []windowStats
	violations violations
	heapLiveMB float64
	objectsK   float64
	goroutines int
}

// quiesce parks the deployment between windows: relay queues empty and
// the WAL synced, so no window inherits another's backlog.
func quiesce(e *env) {
	deadline := time.Now().Add(opTimeout)
	for e.rly.QueuedTotal() != 0 && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	_ = e.rly.Sync() // a failed sync is counted in WALErrors and fails the run there
}

// timedPhase runs n windows of wl under the protocol every workload
// shares: quiesce, window, quiesce, … Quiescing lies outside every
// window's wall, CPU, allocation and byte deltas, and the window's own
// canary signatures are taken out of them.
func timedPhase(ctx context.Context, e *env, wl workload, c *canary, aluShare float64, n int) phase {
	var ph phase
	quiesce(e)
	before := e.violations()
	for w := 0; w < n; w++ {
		s0 := takeSnapshot(e)
		res := wl.window(ctx, w)
		s1 := takeSnapshot(e)
		quiesce(e)
		var canaryTime time.Duration
		for _, s := range res.samples {
			canaryTime += s.alu + s.mem
		}
		n := float64(len(res.samples))
		// Steal is spread over the machine's vCPUs; a flow loses its
		// vCPU's share of it.
		steal := (s1.steal - s0.steal) / time.Duration(runtime.NumCPU())
		gross := s1.at.Sub(s0.at)
		ws := windowStats{
			windowResult: res,
			// The flows sample in parallel, so the wall loses one flow's share.
			wall:    gross - canaryTime/flows - time.Duration(stealStall*float64(steal)),
			running: 1 - float64(steal)/float64(gross),
			cpu:     s1.cpu - s0.cpu - canaryTime,
			mallocs: s1.mallocs - s0.mallocs - uint64(n*c.mallocsPerSample),
			bytes:   s1.bytes - s0.bytes - uint64(n*c.bytesPerSample),
			wire:    s1.wire - s0.wire, packets: s1.packets - s0.packets,
			gcs: s1.gcs - s0.gcs, pauseNS: s1.pauseNS - s0.pauseNS,
			steal: steal,
		}
		ws.tick, ws.aluTick, ws.memTick = tickOf(res.samples, aluShare)
		// A counter that must stay still moved: the window's ops cannot
		// be told apart from the damage, so they all count as failed.
		now := e.violations()
		if now != before {
			ws.failed = ws.attempted
			if ws.detail == "" {
				ws.detail = fmt.Sprintf("violation counters moved: %+v", now)
			}
			before = now
		}
		ph.windows = append(ph.windows, ws)
	}
	ph.violations = e.violations()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ph.heapLiveMB = float64(ms.HeapAlloc) / (1 << 20)
	ph.objectsK = float64(ms.HeapObjects) / 1000
	ph.goroutines = runtime.NumGoroutine()
	return ph
}

// watchdog expires generator ops older than opTimeout. It is the only
// timer in a run and it is not on any op's path.
func watchdog(wl workload) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk := time.NewTicker(time.Second)
		defer tk.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-tk.C:
				for _, t := range wl.trackers() {
					t.expire(now)
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// result is one whole run, before it is rendered as metrics.
type result struct {
	cfg        config
	setupS     []float64    // each set-up at the reference tick
	setupRawS  []float64    // each set-up as the clock saw it
	setupTicks [][2]float64 // the two yardsticks around each set-up, in µs
	setupSteal []float64    // per-vCPU steal during each set-up, in seconds
	phase      phase
	tickUS     float64
	scratchDir string
	scratchFS  string
	layers     map[string]float64 // per-layer pass, nil without -trace 1
	// The deployment's counters before and after the timed phase.
	before, after counters
	// took is how long each part of the run took, in seconds.
	took map[string]float64
}

// stopwatch returns a function that books the time since its last call
// (or since now) under a name in r.took.
func (r *result) stopwatch() func(name string) {
	last := time.Now()
	return func(name string) {
		now := time.Now()
		r.took[name] = now.Sub(last).Seconds()
		last = now
	}
}

// built is one set-up: environment plus workload, warmed up.
type built struct {
	env *env
	wl  workload
	rc  *runCtx
	dir string
}

// single runs one untimed window of n ops per active flow (at most the
// window size the workload was set up for).
func (b *built) single(ctx context.Context, n int) windowResult {
	was := b.rc.opsPerFlow
	b.rc.opsPerFlow = min(n, was)
	defer func() { b.rc.opsPerFlow = was }()
	return b.wl.window(ctx, 0)
}

func (b *built) close() {
	b.env.close()
	_ = os.RemoveAll(b.dir)
}

// build makes one scratch directory, one deployment and one warmed-up
// workload on it.
func build(ctx context.Context, cfg config, tracer *trace.Recorder, c *canary) (*built, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "run-*")
	if err != nil {
		return nil, err
	}
	rc := &runCtx{spec: cfg.spec, seed: cfg.seed, opsPerFlow: cfg.opsPerFlow(), canary: c, nflows: flows}
	wl := cfg.spec.build(rc)
	e, err := newEnv(dir, cfg.seed, wl.users(), tracer)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	rc.env = e
	b := &built{env: e, wl: wl, rc: rc, dir: dir}
	if err := b.wl.setup(ctx); err != nil {
		b.close()
		return nil, fmt.Errorf("%s set-up: %w", cfg.spec.name, err)
	}
	return b, nil
}

// run executes one workload: set-up (several times over), the timed
// phase and, with cfg.trace, the per-layer pass.
func run(cfg config) (*result, error) {
	if cfg.windows == 0 {
		cfg.windows = windows
	}
	// Pinned, so a bigger machine measures the same program: two flows
	// on two procs.
	runtime.GOMAXPROCS(flows)
	ctx := context.Background()
	c, err := newCanary()
	if err != nil {
		return nil, err
	}
	res := &result{cfg: cfg, took: map[string]float64{}}
	lap := res.stopwatch()

	// Set-up is fixed work — committed keys, no key generation — done
	// several times over; the last deployment is the one measured. Each
	// set-up is bracketed by canary samples and reported at the
	// reference tick (see setupSeconds).
	var b *built
	around := c.samples(setupSamples)
	began := time.Now()
	enough := func(done int) bool {
		if cfg.setups > 0 { // a test's fixed count
			return done >= cfg.setups
		}
		return done >= maxSetups || (done >= minSetups && time.Since(began) >= setupBudget)
	}
	for !enough(len(res.setupS)) {
		if b != nil {
			b.close()
		}
		t0, steal0 := time.Now(), stolen()
		if b, err = build(ctx, cfg, nil, c); err != nil {
			return nil, err
		}
		raw := time.Since(t0).Seconds()
		steal := (stolen() - steal0).Seconds() / float64(runtime.NumCPU())
		after := c.samples(setupSamples)
		tick, alu, mem := tickOf(append(around, after...), cfg.spec.aluShare)
		res.setupRawS = append(res.setupRawS, raw)
		res.setupSteal = append(res.setupSteal, steal)
		res.setupS = append(res.setupS, setupSeconds(raw, steal, tick, cfg.spec.aluShare))
		res.setupTicks = append(res.setupTicks, [2]float64{alu * 1e6, mem * 1e6})
		around = after
	}
	defer b.close()
	res.scratchDir, res.scratchFS = b.dir, fsType(b.dir)
	runtime.GC()
	lap("set_up")

	stop := watchdog(b.wl)
	res.before = b.env.counters()
	res.phase = timedPhase(ctx, b.env, b.wl, c, cfg.spec.aluShare, cfg.windows)
	res.after = b.env.counters()
	stop()
	lap("timed_phase")
	ticks := make([]float64, len(res.phase.windows))
	for i, w := range res.phase.windows {
		ticks[i] = w.tick * 1e6
	}
	res.tickUS = median(ticks)

	if cfg.trace {
		if res.layers, err = layerPass(ctx, cfg, b, c, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// endToEnd renders the gated metrics of a run.
func (r *result) endToEnd() map[string]float64 {
	ws := r.phase.windows
	var goodput, p50, cpu []float64
	var mallocs, bytes, wire uint64
	deliveries := 0
	for _, w := range ws {
		deliveries += w.deliveries
		mallocs += w.mallocs
		bytes += w.bytes
		wire += w.wire
		if w.deliveries == 0 || len(w.lat) == 0 || w.tick == 0 {
			continue
		}
		goodput = append(goodput, float64(w.deliveries)/(w.wall.Seconds()/w.tick)*1000)
		lat := durationsToFloat(w.lat, time.Nanosecond)
		sort.Float64s(lat)
		// Steal comes in slices far shorter than a window, so it
		// stretches every op alike; the median op is stated net of it,
		// like the wall.
		p50 = append(p50, quantile(lat, 0.5)*w.running/1e9/w.tick)
		cpu = append(cpu, w.cpu.Seconds()/float64(w.deliveries)/w.tick)
	}
	d := float64(max(deliveries, 1))
	return map[string]float64{
		"setup_s":           median(r.setupS),
		"goodput_per_ktick": median(goodput),
		"latency_p50_ticks": median(p50),
		"cpu_ticks_per_op":  median(cpu),
		"allocs_per_op":     float64(mallocs) / d,
		"alloc_kb_per_op":   float64(bytes) / 1024 / d,
		"wire_bytes_per_op": float64(wire) / d,
		"heap_live_mb":      r.phase.heapLiveMB,
	}
}

// totals adds up the generator's own accounting.
func (r *result) totals() (attempted, failed, deliveries int, detail string) {
	for _, w := range r.phase.windows {
		attempted += w.attempted
		failed += w.failed
		deliveries += w.deliveries
		if detail == "" {
			detail = w.detail
		}
	}
	return
}
