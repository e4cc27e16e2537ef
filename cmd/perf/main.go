// Command perf is the repository's end-to-end benchmark: five
// workloads on the full secure stack, measured in canary ticks, with a
// per-layer cost stack. README.md beside this file defines every
// metric; BENCHMARK.json at the repository root is the contract.
//
//	bash cmd/perf/run.sh -workload unicast -seed 1 -seconds 8 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed         = flag.Int64("seed", 1, "seed for bodies, role assignment, the offline set, the churn order and the fabric")
		seconds      = flag.Float64("seconds", 8, "run length the op counts are scaled to (the timed phase is 20 windows of fixed op counts)")
		traceMode    = flag.Int("trace", 0, "0: print the end-to-end metrics; 1: also run the per-layer pass and print the per-layer metrics")
		spans        = flag.String("spans", "", "with -trace 1: write the traced pass's spans to this file as JSON")
		scratch      = flag.String("scratch", defaultScratch, "directory for per-run scratch (WAL, audit journal); removed at exit")
		aa           = flag.Int("aa", 0, "A/A self-check: run every workload 2K times, alternating, and compare the two interleaved sets")
		genKeysDir   = flag.String("gen-keys", "", "regenerate the key fixtures into this directory and exit")
		describe     = flag.Bool("describe", false, "print BENCHMARK.json as this binary defines it and exit")
	)
	flag.Parse()
	switch {
	case *describe:
		if err := writeContract(os.Stdout, *seconds); err != nil {
			fatal(err)
		}
		return
	case *genKeysDir != "":
		if err := genKeys(*genKeysDir); err != nil {
			fatal(err)
		}
		return
	case *aa > 0:
		os.Exit(selfCheck(*aa, *seed, *seconds, *scratch))
	}
	sp, ok := specByName(*workloadName)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *workloadName, strings.Join(workloadNames(), ", ")))
	}
	if *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fatal(fmt.Errorf("need -seconds > 0 and -trace 0 or 1"))
	}
	res, err := run(config{spec: sp, seed: *seed, seconds: *seconds, trace: *traceMode == 1, scratch: *scratch, spans: *spans})
	if err != nil {
		fatal(err)
	}
	if !emit(os.Stdout, res) {
		os.Exit(1)
	}
}

// defaultScratch keeps every byte the benchmark writes inside the
// checkout it runs from (.bench_build is git-ignored).
const defaultScratch = ".bench_build/perf-scratch"

func workloadNames() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perf:", err)
	os.Exit(2)
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output, as the benchmark
// contract fixes it.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// provenance is printed on the line before the result: what was run,
// on what, and how many samples stand behind each percentile.
type provenance struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      float64            `json:"seconds"`
	GoVersion    string             `json:"go_version"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	NumCPU       int                `json:"nproc"`
	Commit       string             `json:"git_commit"`
	Scratch      string             `json:"scratch_dir"`
	ScratchFS    string             `json:"scratch_fs"`
	Windows      int                `json:"windows"`
	OpsPerWindow int                `json:"generator_ops_per_window"`
	Deliveries   int                `json:"deliveries"`
	Samples      map[string]int     `json:"samples"`
	ReliableTail string             `json:"highest_percentile_with_10_samples_beyond"`
	Took         map[string]float64 `json:"seconds_spent"`
	SetupS       []float64          `json:"setup_s_each"`
	SetupRawS    []float64          `json:"setup_raw_s_each"`
	SetupTicks   [][2]float64       `json:"setup_alu_mem_tick_us_each"`
	SetupSteal   []float64          `json:"setup_steal_s_each"`
	TickUS       float64            `json:"canary_tick_us"`
	Violations   violations         `json:"violations"`
	FirstFailure string             `json:"first_failure,omitempty"`
	PerWindow    perWindow          `json:"per_window"`
	RawEndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
}

// perWindow lays the timed phase open, window by window, so that a
// noisy run can be told from a noisy machine.
type perWindow struct {
	WallMS  []float64 `json:"wall_ms"`
	CPUMS   []float64 `json:"cpu_ms"`
	StealMS []float64 `json:"steal_ms"`
	TickUS  []float64 `json:"tick_us"`
	ALUUS   []float64 `json:"alu_tick_us"`
	MemUS   []float64 `json:"mem_tick_us"`
	P50US   []float64 `json:"latency_p50_us"`
	GCs     []uint32  `json:"gc_cycles"`
	Deliver []int     `json:"deliveries"`
}

func (r *result) perWindow() perWindow {
	var pw perWindow
	for _, w := range r.phase.windows {
		pw.WallMS = append(pw.WallMS, float64(w.wall.Microseconds())/1e3)
		pw.CPUMS = append(pw.CPUMS, float64(w.cpu.Microseconds())/1e3)
		pw.StealMS = append(pw.StealMS, float64(w.steal.Microseconds())/1e3)
		pw.TickUS = append(pw.TickUS, math.Round(w.tick*1e9)/1e3)
		pw.ALUUS = append(pw.ALUUS, math.Round(w.aluTick*1e9)/1e3)
		pw.MemUS = append(pw.MemUS, math.Round(w.memTick*1e9)/1e3)
		pw.P50US = append(pw.P50US, math.Round(quantile(sortedCopy(durationsToFloat(w.lat, time.Nanosecond)), 0.5))/1e3)
		pw.GCs = append(pw.GCs, w.gcs)
		pw.Deliver = append(pw.Deliver, w.deliveries)
	}
	return pw
}

func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (not built inside a git checkout)"
}

// emit prints provenance and the result line; it reports whether the
// run was correct.
func emit(w io.Writer, r *result) bool {
	attempted, failed, deliveries, detail := r.totals()
	correct := failed == 0 && attempted > 0 && !r.phase.violations.any()
	lat := 0
	for _, ws := range r.phase.windows {
		lat += len(ws.lat)
	}
	tail, _ := reliableTail(lat)
	prov := provenance{
		Workload: r.cfg.spec.name, Seed: r.cfg.seed, Seconds: r.cfg.seconds,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: gitCommit(), Scratch: r.scratchDir, ScratchFS: r.scratchFS,
		Windows: len(r.phase.windows), OpsPerWindow: flows * r.cfg.opsPerFlow(), Deliveries: deliveries,
		Samples: map[string]int{
			"latency_p50_ticks": len(r.phase.windows), "goodput_per_ktick": len(r.phase.windows),
			"cpu_ticks_per_op": len(r.phase.windows), "setup_s": len(r.setupS),
			"latency_ops_per_window": lat / max(len(r.phase.windows), 1), "tail.latency": lat,
		},
		ReliableTail: tail, Took: r.took, SetupS: r.setupS, SetupRawS: r.setupRawS, SetupTicks: r.setupTicks, SetupSteal: r.setupSteal, TickUS: r.tickUS,
		Violations: r.phase.violations, FirstFailure: detail, PerWindow: r.perWindow(),
	}
	values := r.endToEnd()
	defs := endToEndMetrics
	if r.cfg.trace {
		prov.RawEndToEnd = values
		values, defs = r.layers, perLayerMetrics
	}
	line := resultLine{Correct: correct, Attempted: max(attempted, 1), Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(prov); err != nil {
		fatal(err)
	}
	if err := enc.Encode(line); err != nil {
		fatal(err)
	}
	return correct
}

// contract is BENCHMARK.json, with exactly the keys the benchmark
// contract names.
type contract struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []contractWhy    `json:"workloads"`
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// theContract builds BENCHMARK.json from the tables in this package, so
// that the file and the binary cannot drift apart unnoticed.
func theContract(seconds float64) contract {
	c := contract{Command: []string{"bash", "cmd/perf/run.sh"}, Paths: []string{"cmd/perf"}, RunSeconds: int(seconds)}
	for _, s := range specs {
		c.Workloads = append(c.Workloads, contractWhy{s.name, s.why})
	}
	for _, d := range endToEndMetrics {
		b := d.Bound
		c.EndToEnd = append(c.EndToEnd, contractMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayerMetrics {
		c.PerLayer = append(c.PerLayer, contractMetric{d.Name, d.Unit, d.Better, nil})
	}
	return c
}

func writeContract(w io.Writer, seconds float64) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(theContract(seconds))
}
