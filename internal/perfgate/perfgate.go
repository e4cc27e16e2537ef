// Package perfgate is the repository's performance regression gate: a
// test hands Run the loop its Benchmark function runs, with the
// ceilings that path is held to. Allocation counts are exact and are
// always asserted. Time is asserted only as an absolute ceiling with a
// wide margin, taken as the best of three runs, and not at all under
// the race detector, whose instrumented atomics cost several times any
// ceiling here. No baseline file, no environment: `go test` is the gate.
package perfgate

import (
	"flag"
	"testing"
)

// NoLimit, as a ceiling, leaves that half of a gate unasserted.
const NoLimit = -1

// Run measures body and fails t when it allocates more than maxAllocs
// times per op or, off the race detector, when the fastest of three
// runs takes longer than maxNs per op. It returns the fastest run.
func Run(t *testing.T, body func(*testing.B), maxAllocs, maxNs int64) testing.BenchmarkResult {
	t.Helper()
	// 100 ms a run instead of the 1 s default: allocation counts do not
	// depend on it and every time ceiling has at least 2.9× headroom.
	benchtime := flag.Lookup("test.benchtime").Value
	defer benchtime.Set(benchtime.String())
	benchtime.Set("100ms")

	var best testing.BenchmarkResult
	for run := 0; run < 3; run++ {
		r := testing.Benchmark(body)
		if r.N == 0 {
			t.Fatal("the benchmark body failed")
		}
		if maxAllocs != NoLimit && r.AllocsPerOp() > maxAllocs {
			t.Fatalf("%d allocs/op, ceiling %d", r.AllocsPerOp(), maxAllocs)
		}
		if run == 0 || r.NsPerOp() < best.NsPerOp() {
			best = r
		}
		if Race || maxNs == NoLimit || best.NsPerOp() <= maxNs {
			return best
		}
	}
	t.Fatalf("%d ns/op at best of three, ceiling %d", best.NsPerOp(), maxNs)
	return best
}
