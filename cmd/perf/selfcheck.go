package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// selfCheck is the A/A test: the same binary against itself. Every
// workload runs 2K times, each run a fresh process with its own seed,
// workloads interleaved; even and odd runs form two sets, as a parent
// and a change would in a real comparison. For every gated metric it
// prints both sets' quartiles, how far their medians differ and how
// wide all 2K values spread, and returns non-zero if identical code
// would have tripped a bound.
func selfCheck(k int, seed int64, seconds float64, scratch string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 2
	}
	// values[workload][metric][set] are the runs' results.
	values := map[string]map[string][2][]float64{}
	for i := 0; i < 2*k; i++ {
		for _, sp := range specs {
			cmd := exec.Command(self, "-workload", sp.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-scratch", scratch)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "perf: %s run %d: %v\n", sp.name, i, err)
				return 2
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var line resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
				fmt.Fprintf(os.Stderr, "perf: %s run %d: %v\n", sp.name, i, err)
				return 2
			}
			if values[sp.name] == nil {
				values[sp.name] = map[string][2][]float64{}
			}
			for name, v := range line.Metrics {
				sets := values[sp.name][name]
				sets[i%2] = append(sets[i%2], v.Value)
				values[sp.name][name] = sets
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %s done\n", i+1, 2*k, sp.name)
		}
	}
	failed := 0
	fmt.Printf("%-14s %-18s %36s %36s %8s %8s %6s\n", "workload", "metric", "set A  q1 / median / q3", "set B  q1 / median / q3", "A/B Δ", "spread", "bound")
	for _, sp := range specs {
		for _, d := range endToEndMetrics {
			sets := values[sp.name][d.Name]
			a1, a2, a3 := quartiles(sets[0])
			b1, b2, b3 := quartiles(sets[1])
			all := append(append([]float64(nil), sets[0]...), sets[1]...)
			q1, q2, q3 := quartiles(all)
			delta, spread := ratio(b2-a2, a2), ratio(q3-q1, q2)
			verdict := ""
			// setup_s is gated on its medians only, as the acceptance check does.
			if math.Abs(delta) > d.Bound || (d.Name != "setup_s" && spread > d.Bound) {
				verdict = "  EXCEEDS"
				failed++
			}
			fmt.Printf("%-14s %-18s %10.4g /%10.4g /%10.4g   %10.4g /%10.4g /%10.4g   %+7.2f%% %7.2f%% %5.0f%%%s\n",
				sp.name, d.Name, a1, a2, a3, b1, b2, b3, delta*100, spread*100, d.Bound*100, verdict)
		}
	}
	if failed > 0 {
		fmt.Printf("%d metric/workload pairs exceed their bound on identical code\n", failed)
		return 1
	}
	return 0
}
