package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call: the program under test is not instrumented. Spans of one
// op share Op; Parent is the ID of the span that caused this one (0
// for a top-level stage).
type span struct {
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the log was opened
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; they are written out when the
// benchmark ends. It is used by one goroutine at a time.
type spanLog struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
	t0       time.Time
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{Workload: workload, t0: time.Now()}
}

// do times fn as a span of op under parent and returns the span's ID.
func (l *spanLog) do(op, parent int, layer, name string, fn func()) int {
	id := len(l.Spans) + 1
	l.Spans = append(l.Spans, span{Op: op, ID: id, Parent: parent, Layer: layer, Name: name})
	start := time.Now()
	fn()
	end := time.Now()
	sp := &l.Spans[id-1]
	sp.StartNS, sp.EndNS = start.Sub(l.t0).Nanoseconds(), end.Sub(l.t0).Nanoseconds()
	return id
}

func (s span) dur() float64 { return float64(s.EndNS - s.StartNS) }

// stageTimes folds a log into per-name medians, in nanoseconds:
// total is the span's own duration, self is total minus the part of it
// its child spans cover.
func (l *spanLog) stageTimes() (total, self map[string]float64) {
	children := make(map[int]float64)
	for _, s := range l.Spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	tot := map[string][]float64{}
	slf := map[string][]float64{}
	for _, s := range l.Spans {
		key := s.Layer + "." + s.Name
		tot[key] = append(tot[key], s.dur())
		slf[key] = append(slf[key], max(0, s.dur()-children[s.ID]))
	}
	total, self = map[string]float64{}, map[string]float64{}
	for k, v := range tot {
		total[k] = median(v)
		self[k] = median(slf[k])
	}
	return total, self
}

// perOp sums, for every op, the durations of its spans that match keep
// (top-level spans when keep is nil) and returns the median over ops.
func (l *spanLog) perOp(keep func(span) bool) float64 {
	sums := map[int]float64{}
	for _, s := range l.Spans {
		if keep == nil && s.Parent != 0 {
			continue
		}
		if keep != nil && !keep(s) {
			continue
		}
		sums[s.Op] += s.dur()
	}
	ops := make([]int, 0, len(sums))
	for op := range sums {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	v := make([]float64, len(ops))
	for i, op := range ops {
		v[i] = sums[op]
	}
	return median(v)
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(l); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
