package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"jxtaoverlay/internal/admission"
	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/relay"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/telemetry"
	"jxtaoverlay/internal/trace"
	"jxtaoverlay/internal/xmldoc"
)

// The per-layer pass runs after the timed phase, so nothing in it can
// perturb a gated number. Every layer is measured from outside: by
// timing calls into its public functions and by reading the public
// counters it already keeps. `_us` metrics are raw medians in
// microseconds; canary.tick_us is printed beside them.

// counters are the cumulative public counters of one deployment. The
// pass reports their movement over the timed phase per delivery.
type counters struct {
	signCalls              uint64
	parseCanonical         uint64
	advertParse            uint64
	verifyHits, verifyMiss uint64
	chainHits, chainMiss   uint64
	net                    simnet.Stats
	broker                 broker.Stats
	adm                    admission.Metrics
	relay                  relay.Metrics
	audit                  audit.Stats
}

func (e *env) counters() counters {
	c := counters{
		advertParse: advert.ParseCalls(),
		net:         e.net.Stats(), broker: e.br.Stats(), adm: e.adm.Metrics(),
		relay: e.rly.Metrics(), audit: e.aud.Stats(),
	}
	c.parseCanonical, _ = xmldoc.ParseCanonicalStats()
	e.mu.Lock()
	defer e.mu.Unlock()
	for kp := range e.signers {
		c.signCalls += kp.SignCalls()
	}
	// Verification caches of the broker and of every peer that lives as
	// long as the deployment (a churning peer takes its cache with it).
	add := func(hits, miss uint64, to *[2]uint64) { to[0] += hits; to[1] += miss }
	var vc, cc [2]uint64
	h, m := e.bs.VerifyCache().Stats()
	add(h, m, &vc)
	h, m = e.bs.Trust().ChainCacheStats()
	add(h, m, &cc)
	for _, p := range e.longLived {
		h, m = p.sc.VerifyCache().Stats()
		add(h, m, &vc)
		h, m = p.sc.VerifyCache().TrustStore().ChainCacheStats()
		add(h, m, &cc)
	}
	c.verifyHits, c.verifyMiss, c.chainHits, c.chainMiss = vc[0], vc[1], cc[0], cc[1]
	return c
}

// layerRun is the state of one per-layer pass.
type layerRun struct {
	ctx   context.Context
	cfg   config
	live  *built  // the deployment the timed phase ran on
	c     *canary // for the extra windows
	res   *result
	m     map[string]float64
	spans *spanLog
	body  string // a unicast body of the workload's size
	round string // a round body: 1 KiB, as in both relay workloads
	// singleP50 is the workload's single-flow op latency, untraced, in
	// nanoseconds: the whole the cost stack must add up to.
	singleP50 float64
}

// layerOps is how many generator ops the single-flow passes and the
// step-mode chain repeat.
func (l *layerRun) layerOps() int {
	if l.cfg.spec.deliveriesPerOp > 1 || l.cfg.spec.bodyBytes == 0 {
		return scaled(l.cfg, 40)
	}
	if l.cfg.spec.bodyBytes > 64<<10 {
		return scaled(l.cfg, 60)
	}
	return scaled(l.cfg, 200)
}

// scaled shrinks a repetition count with -seconds, so that the tiny
// runs of the tests stay tiny.
func scaled(cfg config, n int) int {
	return max(4, int(float64(n)*min(1, cfg.seconds/8)))
}

func layerPass(ctx context.Context, cfg config, b *built, c *canary, r *result) (m map[string]float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			pe, ok := p.(passError)
			if !ok {
				panic(p)
			}
			m, err = nil, fmt.Errorf("per-layer pass: %w", pe.err)
		}
	}()
	l := &layerRun{ctx: ctx, cfg: cfg, live: b, c: c, res: r, m: map[string]float64{}, spans: newSpanLog(cfg.spec.name)}
	size := cfg.spec.bodyBytes
	if size == 0 {
		size = 1 << 10
	}
	l.body = makeBodies(newRand(cfg.seed), 0, 1, size)[0]
	l.round = makeBodies(newRand(cfg.seed), 0, 1, 1<<10)[0]

	lap := r.stopwatch()
	l.fromTimedPhase()
	l.speedup()
	lap("speedup_p1")
	rig, err := l.buildRig()
	if err != nil {
		return nil, err
	}
	defer rig.close()
	in := l.inputs(rig)
	lap("rig")
	l.primitives(rig, in)
	lap("primitives")
	l.liveCalls(rig)
	lap("live_calls")
	l.stackPass(rig, in)
	lap("stack_pass")
	l.openLoop()
	lap("open_loop")
	if cfg.spans != "" {
		if err := l.spans.write(cfg.spans); err != nil {
			return nil, err
		}
	}
	for _, d := range perLayerMetrics {
		if _, ok := l.m[d.Name]; !ok {
			return nil, fmt.Errorf("per-layer pass: %s was not measured", d.Name)
		}
	}
	return l.m, nil
}

// fromTimedPhase fills every metric that is a counter's movement over
// the timed phase, or another view of the windows themselves.
func (l *layerRun) fromTimedPhase() {
	m, r := l.m, l.res
	c0, c1 := r.before, r.after
	_, _, deliveries, _ := r.totals()
	d := float64(max(deliveries, 1))
	per := func(a, b uint64) float64 { return float64(b-a) / d }
	hit := func(h0, h1, m0, m1 uint64) float64 {
		return ratio(float64(h1-h0), float64(h1-h0+m1-m0))
	}

	m["keys.sign_calls_per_op"] = per(c0.signCalls, c1.signCalls)
	m["xmldoc.parse_calls_per_op"] = per(c0.parseCanonical, c1.parseCanonical)
	m["advert.parse_calls_per_op"] = per(c0.advertParse, c1.advertParse)
	m["xdsig.cache_hit_ratio"] = hit(c0.verifyHits, c1.verifyHits, c0.verifyMiss, c1.verifyMiss)
	m["cred.chain_cache_hit_ratio"] = hit(c0.chainHits, c1.chainHits, c0.chainMiss, c1.chainMiss)
	m["simnet.packets_per_op"] = per(c0.net.Sent, c1.net.Sent)
	m["simnet.bytes_per_op"] = per(c0.net.Bytes, c1.net.Bytes)
	m["simnet.dropped"] = float64(c1.net.Dropped)
	m["broker.ops_per_op"] = per(c0.broker.OpsDispatched, c1.broker.OpsDispatched)
	m["broker.peers_online"] = float64(c1.broker.PeersOnline)
	m["broker.idem_entries"] = float64(l.live.env.br.IdemEntries())
	m["admission.refused"] = float64(c1.adm.Limited)
	direct := float64(c1.relay.DeliveredDirect - c0.relay.DeliveredDirect)
	flushed := float64(c1.relay.DeliveredFlushed - c0.relay.DeliveredFlushed)
	m["relay.direct_ratio"] = ratio(direct, direct+flushed)
	m["relay.enqueued_per_op"] = per(c0.relay.Enqueued, c1.relay.Enqueued)
	m["relay.deliver_errors"] = float64(c1.relay.DeliverErrors)
	m["relay.dropped"] = float64(c1.relay.DroppedOverflow + c1.relay.DroppedQuota + c1.relay.Expired)
	m["wal.errors"] = float64(c1.relay.WALErrors)
	m["audit.records_per_op"] = per(c0.audit.Records, c1.audit.Records)
	m["audit.checkpoints"] = float64(c1.audit.Checkpoints - c0.audit.Checkpoints)
	segs, _ := filepath.Glob(filepath.Join(l.live.dir, "wal", "*.wal"))
	m["wal.segments"] = float64(len(segs))
	m["discovery.cache_len"] = float64(l.live.env.longLived[0].sc.Cache().Len())

	// The windows again, in human units and with their noise.
	var perS, p50ms, cpuMS, ticksUS, goodput, tailTicks []float64
	var gcs, pause float64
	peak := 0
	for _, w := range r.phase.windows {
		gcs += float64(w.gcs)
		pause += float64(w.pauseNS) / 1e6
		peak = max(peak, w.queuedPeak)
		if w.deliveries == 0 || len(w.lat) == 0 || w.tick == 0 {
			continue
		}
		perS = append(perS, float64(w.deliveries)/w.wall.Seconds())
		lat := sortedCopy(durationsToFloat(w.lat, time.Nanosecond))
		p50ms = append(p50ms, quantile(lat, 0.5)/1e6)
		cpuMS = append(cpuMS, w.cpu.Seconds()*1e3/float64(w.deliveries))
		ticksUS = append(ticksUS, w.tick*1e6)
		goodput = append(goodput, float64(w.deliveries)/(w.wall.Seconds()/w.tick)*1000)
		for _, x := range lat {
			tailTicks = append(tailTicks, x/1e9/w.tick)
		}
	}
	sort.Float64s(tailTicks)
	m["raw.goodput_per_s"] = median(perS)
	m["raw.latency_p50_ms"] = median(p50ms)
	m["raw.cpu_ms_per_op"] = median(cpuMS)
	m["tail.latency_p99_ticks"] = quantile(tailTicks, 0.99)
	m["tail.latency_p999_ticks"] = quantile(tailTicks, 0.999)
	m["tail.samples"] = float64(len(tailTicks))
	m["canary.tick_us"] = median(ticksUS)
	m["canary.tick_cv"] = cv(ticksUS)
	m["gen.window_cv"] = cv(goodput)
	m["gen.windows"] = float64(len(r.phase.windows))
	m["relay.queue_depth_max"] = float64(peak)
	m["runtime.gc_cycles"] = gcs
	m["runtime.gc_pause_ms"] = pause
	m["runtime.goroutines_end"] = float64(r.phase.goroutines)
	m["runtime.heap_objects_k"] = r.phase.objectsK
	e2e := r.endToEnd()
	// Two procs offer 2000 CPU-ticks per 1000 wall-ticks; cpu_util is the
	// share of them the deliveries account for. The rest is waiting.
	m["runtime.cpu_util"] = ratio(e2e["goodput_per_ktick"], flows*1000/e2e["cpu_ticks_per_op"])

	reg := l.live.env.reg
	m["telemetry.snapshot_us"] = timeIt(20, func() { reg.Snapshot() })
	h := reg.Histogram(client.DeliveryLatencyMetric, "", telemetry.LatencyBucketsMS)
	if h.Count() > 0 {
		m["telemetry.delivery_hist_p50_ms"] = h.Quantile(0.5)
	} else {
		m["telemetry.delivery_hist_p50_ms"] = 0
	}
}

// speedup reruns four windows, half as long, at GOMAXPROCS(1): the
// ROADMAP's "at 1 and N". The ratio of goodput says whether the second
// proc is used.
func (l *layerRun) speedup() {
	const extra = 4
	rc := l.live.rc
	was := rc.opsPerFlow
	rc.opsPerFlow = max(1, was/2)
	runtime.GOMAXPROCS(1)
	stop := watchdog(l.live.wl)
	ph := timedPhase(l.ctx, l.live.env, l.live.wl, l.c, l.cfg.spec.aluShare, min(extra, len(l.res.phase.windows)))
	stop()
	runtime.GOMAXPROCS(flows)
	rc.opsPerFlow = was
	one := (&result{phase: ph, setupS: []float64{0}}).endToEnd()["goodput_per_ktick"]
	l.m["runtime.speedup_p2_over_p1"] = ratio(l.res.endToEnd()["goodput_per_ktick"], one)
}

// stackPass measures the three things the cost stack is made of, in
// alternating blocks so that all three see the same minutes of this
// machine: the workload's op with one flow only, as it is (the whole
// the stack must add up to); the same on a twin deployment built with a
// trace.Recorder at SampleRate 1, whose stages are read back through
// Snapshot (the ratio of the two medians is the tracing overhead); and
// the step-mode chain (stepmode.go).
func (l *layerRun) stackPass(rig *built, in *inputs) {
	rec := trace.New(trace.Config{SampleRate: 1, Seed: uint64(l.cfg.seed), ShardCap: 8192})
	twin := must(build(l.ctx, l.cfg, rec, nil))
	defer twin.close()
	tracedFrom := time.Now().UnixNano() // the twin's own set-up is not part of the traced pass
	ch := l.newChain(rig, in)
	defer ch.close()

	// One op of each at a time; an offline-drain "op" only exists inside
	// a cycle of log-outs and re-joins, so there it is four cycles each.
	per := 1
	if g, ok := l.live.wl.(*groupRelay); ok && g.drain {
		per = max(1, l.layerOps()/4)
	}
	blocks := max(1, l.layerOps()/per)
	block := func(b *built) []time.Duration {
		b.rc.nflows, b.rc.canary = 1, nil
		defer func() { b.rc.nflows, b.rc.canary = flows, l.c }()
		res := b.single(l.ctx, per)
		if res.failed > 0 || len(res.lat) == 0 {
			check(fmt.Errorf("single-flow pass: %d of %d ops failed (%s)", res.failed, res.attempted, res.detail))
		}
		return res.lat
	}
	var plain, traced []time.Duration
	op := 0
	for i := 0; i < blocks; i++ {
		plain = append(plain, block(l.live)...)
		traced = append(traced, block(twin)...)
		for j := 0; j < per; j++ {
			op++
			ch.step(op)
		}
	}
	l.singleP50 = medianDuration(plain)
	l.m["trace.overhead_ratio"] = ratio(medianDuration(traced), l.singleP50)
	l.stackMetrics()

	byStage := map[string][]float64{}
	for _, sp := range rec.Snapshot() {
		if sp.Start >= tracedFrom {
			byStage[sp.Stage.String()] = append(byStage[sp.Stage.String()], float64(sp.Duration)/1e3)
		}
	}
	// One metric per PR 8 stage: trace.stage.<stage>_us.
	for _, name := range layerMetricNames("trace.stage.") {
		stage := strings.TrimSuffix(strings.TrimPrefix(name, "trace.stage."), "_us")
		l.m[name] = median(byStage[stage])
	}
	off := trace.New(trace.Config{SampleRate: 0})
	const spansPerCall = 1000
	l.m["trace.unsampled_span_us"] = timeIt(20, func() {
		for i := 0; i < spansPerCall; i++ {
			off.End(trace.Begin(off.NewID(), trace.StageSeal), trace.OutcomeOK)
		}
	}) / spansPerCall
}

// buildRig builds the deployment the live-call measurements run on: 17
// members of one group on the full secure stack, the same for every
// workload, so that a layer's number means the same thing in all five
// reports.
func (l *layerRun) buildRig() (*built, error) {
	sp, _ := specByName("group-relay")
	return build(l.ctx, config{spec: sp, seed: l.cfg.seed, seconds: min(l.cfg.seconds, 1), scratch: l.cfg.scratch}, nil, nil)
}

// scratchDir makes a directory for a stand-alone component under the
// live deployment's scratch directory (removed with it).
func (l *layerRun) scratchDir(name string) string {
	dir := filepath.Join(l.live.dir, name)
	check(os.MkdirAll(dir, 0o755))
	return dir
}
