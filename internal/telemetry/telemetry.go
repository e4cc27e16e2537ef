// Package telemetry is the system's unified metrics layer: a
// lock-cheap registry of named counters, gauges and histograms with a
// stable snapshot API, exported as Prometheus-style text or JSON.
//
// Two usage patterns, chosen per call site by cost:
//
//   - Histogram instruments are owned by the registry and updated
//     inline (a few atomic adds on the hot path). They are for code that
//     has no distribution of its own — a client's delivery latency.
//   - GaugeFunc collectors PULL from counters a subsystem already
//     keeps (relay.Metrics, the trust store's cache stats,
//     advert.ParseCalls, keys.SignCalls). Registration costs the hot
//     path nothing at all: the closure runs only when a snapshot is
//     taken. This is how the existing per-subsystem counters are
//     unified without touching their fast paths — see
//     core.RegisterBrokerTelemetry. GaugeSum and CounterSum are the
//     same for sources that come and go: each attaches its collector
//     and detaches it when it closes.
//
// Snapshots are point-in-time and internally consistent per metric
// (each value is one atomic load or one collector call); they are not
// a cross-metric transaction, which monitoring does not need.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Histogram counts observations into fixed exponential buckets. Bucket
// i counts observations <= Buckets[i]; the implicit last bucket counts
// the rest. Observe is one atomic add plus a branch-free bucket search
// over a small slice — cheap enough for per-message latency.
type Histogram struct {
	bounds []float64 // ascending upper bounds
	counts []atomic.Uint64
	sum    atomic.Uint64 // total, in the observed unit, truncated
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	if v > 0 {
		h.sum.Add(uint64(v))
	}
}

// Count returns how many observations the histogram has absorbed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile estimates the q-quantile (0 < q <= 1) from the recorded
// buckets, interpolating within the winning bucket. With no
// observations it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	seen := uint64(0)
	lower := 0.0
	for i := range h.counts {
		n := h.counts[i].Load()
		upper := math.Inf(1)
		if i < len(h.bounds) {
			upper = h.bounds[i]
		}
		if float64(seen+n) >= rank && n > 0 {
			if math.IsInf(upper, 1) {
				return lower
			}
			frac := (rank - float64(seen)) / float64(n)
			return lower + (upper-lower)*frac
		}
		seen += n
		lower = upper
	}
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return 0
}

// Sample is one metric in a snapshot.
type Sample struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"` // "counter", "gauge", "histogram"
	Value float64 `json:"value"`
	// Histogram-only fields.
	Count   uint64    `json:"count,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []uint64  `json:"buckets,omitempty"`
}

// Sum is a pull metric with any number of sources that come and go —
// the clients of a simulation sharing one registry, each reporting its
// own cache. Its value is the sum of what the attached sources read at
// snapshot time. A counter keeps the last reading of a source that has
// detached, so it stays monotonic; a gauge forgets it.
type Sum struct {
	mu      sync.Mutex
	counter bool
	retired float64
	srcs    map[*func() float64]struct{}
}

// Attach adds a source and returns the function that removes it. A
// source is held, with everything its closure reaches, until then.
func (s *Sum) Attach(fn func() float64) (detach func()) {
	src := &fn
	s.mu.Lock()
	s.srcs[src] = struct{}{}
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.srcs[src]; ok && s.counter {
			s.retired += fn()
		}
		delete(s.srcs, src)
	}
}

func (s *Sum) value() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.retired
	for src := range s.srcs {
		v += (*src)()
	}
	return v
}

type metric struct {
	name    string
	help    string
	kind    string
	hist    *Histogram
	collect func() float64 // GaugeFunc
	sum     *Sum           // GaugeSum
}

// Registry holds a set of named metrics. Registration takes a lock;
// instrument updates are lock-free atomics. The zero value is not
// usable; call New.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	routes  map[string]http.Handler // extra HTTP routes mounted by Handler (see Handle)
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Default is the process-wide registry used by tools (overlaysim, the
// scenario driver) for process-scoped sources. Libraries take a
// *Registry explicitly.
var Default = New()

func (r *Registry) register(m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.metrics[m.name]; ok {
		if old.kind != m.kind || (old.sum == nil) != (m.sum == nil) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", m.name, m.kind, old.kind))
		}
		// Instruments are idempotent by name (the same histogram or sum
		// is returned); collectors are replaced, so re-wiring a
		// restarted subsystem (e.g. a recovered relay) rebinds the name
		// to the live instance instead of a dead closure.
		if m.collect != nil {
			old.collect = m.collect
		}
		return old
	}
	r.metrics[m.name] = m
	return m
}

// GaugeFunc registers a pull collector: fn runs at snapshot time only,
// so instrumenting an existing counter costs its hot path nothing.
// Re-registering a name replaces the collector.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: "gauge", collect: fn})
}

// CounterFunc is GaugeFunc for sources that are semantically monotonic
// (exposition kind "counter"); the collector contract is identical.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: "counter", collect: fn})
}

// GaugeSum returns the attachable gauge registered under name, creating
// it on first use: pull collection, like GaugeFunc, for any number of
// sources.
func (r *Registry) GaugeSum(name, help string) *Sum {
	return r.register(&metric{name: name, help: help, kind: "gauge", sum: &Sum{srcs: map[*func() float64]struct{}{}}}).sum
}

// CounterSum is GaugeSum for monotonic sources.
func (r *Registry) CounterSum(name, help string) *Sum {
	return r.register(&metric{name: name, help: help, kind: "counter", sum: &Sum{counter: true, srcs: map[*func() float64]struct{}{}}}).sum
}

// Histogram returns the histogram registered under name with the given
// ascending bucket upper bounds (defensively copied).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	m := r.register(&metric{name: name, help: help, kind: "histogram", hist: h})
	return m.hist
}

// LatencyBucketsMS is a general-purpose latency bucket layout
// (milliseconds, ~2.5x exponential) used by the scenario drivers.
var LatencyBucketsMS = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// Snapshot returns every metric's current value, sorted by name.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	out := make([]Sample, 0, len(ms))
	for _, m := range ms {
		s := Sample{Name: m.name, Kind: m.kind}
		switch {
		case m.collect != nil:
			s.Value = m.collect()
		case m.sum != nil:
			s.Value = m.sum.value()
		case m.hist != nil:
			s.Count = m.hist.count.Load()
			s.Sum = float64(m.hist.sum.Load())
			s.Bounds = m.hist.bounds
			s.Buckets = make([]uint64, len(m.hist.counts))
			for i := range m.hist.counts {
				s.Buckets[i] = m.hist.counts[i].Load()
			}
			s.Value = float64(s.Count)
		}
		out = append(out, s)
	}
	return out
}

// Get returns the current value of one metric by name (histograms
// report their observation count) and whether it exists. Intended for
// tests and gating scripts, not hot paths.
func (r *Registry) Get(name string) (float64, bool) {
	for _, s := range r.Snapshot() {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

// WriteText renders the snapshot in a Prometheus-style exposition
// format: "# HELP"/"# TYPE" comments followed by one value line per
// metric (histograms additionally emit cumulative _bucket lines).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	help := make(map[string]string, len(r.metrics))
	for name, m := range r.metrics {
		help[name] = m.help
	}
	r.mu.Unlock()
	for _, s := range r.Snapshot() {
		if h := help[s.Name]; h != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, h); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
			return err
		}
		if s.Kind == "histogram" {
			cum := uint64(0)
			for i, b := range s.Buckets {
				cum += b
				le := "+Inf"
				if i < len(s.Bounds) {
					le = fmt.Sprintf("%g", s.Bounds[i])
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", s.Name, le, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", s.Name, s.Sum, s.Name, s.Count); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", s.Name, s.Value); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the snapshot as a JSON array of Samples — the
// machine-readable form `admin metrics` consumes.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
