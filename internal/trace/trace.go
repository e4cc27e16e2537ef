// Package trace is a sampling, lock-cheap span recorder for message
// lifecycle attribution, built in the style of internal/telemetry: the
// instrumented path pays a fixed, allocation-free cost per event, and
// everything expensive (snapshotting, filtering, rendering) happens on
// the pull side.
//
// A span is a fixed-size struct — trace ID, stage, start/duration,
// outcome token, and a small attr array — written into one of a set of
// per-shard ring buffers. Sharding is by trace ID so all spans of one
// trace land in one ring (locality for retrieval, and one mutex is
// never contended by more than 1/shards of the traffic).
//
// Sampling is head-based on the trace ID: a trace is either in the
// sampled set for the recorder's seed or it is not, and every stage of
// its lifecycle — across client, broker, relay and the receiving
// client, as long as they share the seed or the decision is made once
// at the head — agrees. The unsampled fast path is a seeded hash
// compare plus ONE atomic load (the forced-trace probe): no locks, no
// allocations, no syscalls. TestGateSpanUnsampled pins that claim.
//
// Anomalies override sampling: spans whose outcome is anomalous
// (rate-limited, relay-quota-exceeded, WAL errors, security alerts)
// or whose duration exceeds the configured slow threshold are always
// recorded, and their trace ID is marked in a small lossy forced-set
// so subsequent stages of the same trace are captured too. This is
// what lets a SecurityAlert carry a trace ID that is actually
// retrievable from /debug/traces after the fact.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one step of the message lifecycle. The zero value
// is StageSeal; stages are ordered roughly in lifecycle order, which
// the waterfall renderer uses as a tiebreak for zero-duration spans.
type Stage uint8

const (
	StageSeal      Stage = iota // client: SealGroupDetached / envelope seal
	StageSend                   // client: RPC to the broker (upload, op call)
	StageAdmission              // broker: admission-control decision
	StageParse                  // broker: wire parse (canonical XML / round wire)
	StageVerify                 // broker: signature / recipient verification
	StagePublish                // broker: cache insert + propagation
	StageSlice                  // broker: per-recipient round slicing + routing
	StageEnqueue                // relay: quota + queue insert for an offline peer
	StageWALAppend              // relay: WAL record append (staged or inline)
	StageWALFsync               // relay: fsync making the append durable
	StageQueueWait              // relay: dwell time in the offline queue
	StageDeliver                // broker: slice push to the recipient client
	StageOpen                   // client: OpenSlice / envelope open + verify
	StageResume                 // client: automatic session resume (reconnect + re-login)
	stageCount
)

var stageNames = [stageCount]string{
	"seal", "send", "admission", "parse", "verify", "publish",
	"slice", "enqueue", "wal-append", "wal-fsync", "queue-wait",
	"deliver", "open", "resume",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// ParseStage maps a stage name (as rendered by String) back to its
// value; ok is false for unknown names.
func ParseStage(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// Outcome is the span's result token. Outcomes at or beyond
// OutcomeRateLimited are anomalous and force capture regardless of the
// head-sampling decision.
type Outcome uint8

const (
	OutcomeOK    Outcome = iota
	OutcomeError         // ordinary failure (bad wire, unknown op); not forced
	// Anomalous outcomes — everything from here on forces capture.
	OutcomeRateLimited // admission refusal
	OutcomeQuota       // relay queue quota refusal
	OutcomeWALError    // durable-queue append/fsync failure
	OutcomeAlert       // a SecurityAlert fired during this span
	outcomeCount
)

var outcomeNames = [outcomeCount]string{
	"ok", "error", "rate-limited", "relay-quota-exceeded", "wal-error",
	"security-alert",
}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "unknown"
}

// ParseOutcome maps an outcome name back to its value.
func ParseOutcome(name string) (Outcome, bool) {
	for i, n := range outcomeNames {
		if n == name {
			return Outcome(i), true
		}
	}
	return 0, false
}

// Anomalous reports whether the outcome forces capture.
func (o Outcome) Anomalous() bool { return o >= OutcomeRateLimited }

// MaxAttrBytes bounds each attr key and value. Spans carry stage
// metadata only — short printable tokens like an op name or an error
// token — never plaintext, key material, or wire bytes. SetAttr
// enforces the bound; see SECURITY.md.
const MaxAttrBytes = 48

// maxAttrs is the fixed attr capacity per span.
const maxAttrs = 2

// Attr is one key/value pair of span metadata.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Span is the fixed-size unit written into the ring. All fields are
// plain values; copying a Span never allocates.
type Span struct {
	TraceID  uint64
	Stage    Stage
	Outcome  Outcome
	Start    int64 // unix nanoseconds
	Duration int64 // nanoseconds
	Attrs    [maxAttrs]Attr
	nattrs   uint8
}

// SetAttr records one metadata pair on the span. Oversized or
// non-printable (binary) keys/values are rejected outright — dropped,
// not truncated — so a mis-instrumented call site can never leak wire
// bytes or ciphertext into the trace buffer. Excess attrs beyond the
// fixed capacity are dropped too. A span of trace 0 keeps nothing and
// checks nothing.
func (sp *Span) SetAttr(key, value string) {
	if sp.TraceID == 0 || int(sp.nattrs) >= maxAttrs || !attrOK(key) || !attrOK(value) {
		return
	}
	sp.Attrs[sp.nattrs] = Attr{Key: key, Value: value}
	sp.nattrs++
}

// AttrCount returns how many attrs SetAttr accepted.
func (sp *Span) AttrCount() int { return int(sp.nattrs) }

func attrOK(s string) bool {
	if len(s) > MaxAttrBytes {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] > 0x7e { // printable ASCII only
			return false
		}
	}
	return true
}

// Begin opens a span: it stamps the start time and nothing else. The
// span lives on the caller's stack until End decides whether it is
// kept. Trace 0 means untraced: Begin(0, …) returns the zero Span and
// reads no clock, and SetAttr, End and Record do nothing with it, so a
// call site needs no guard of its own to decide whether it is traced.
func Begin(traceID uint64, stage Stage) Span {
	if traceID == 0 {
		return Span{}
	}
	return Span{TraceID: traceID, Stage: stage, Start: time.Now().UnixNano()}
}

// Config sizes a Recorder.
type Config struct {
	// ShardCap is the span capacity of each ring (default 1024). The
	// ring overwrites oldest-first; overwrites are counted as drops.
	ShardCap int
	// SampleRate is the head-sampling probability in [0, 1]. 0 means
	// forced-capture only (anomalies and slow ops still record).
	SampleRate float64
	// SlowThreshold forces capture of any span at least this slow.
	// 0 disables the slow path.
	SlowThreshold time.Duration
	// Seed determines both the NewID sequence and the sampled set.
	// Two recorders with the same seed sample the same trace IDs —
	// scenario runs stay reproducible.
	Seed uint64
}

// Recorder owns the sharded span rings. A nil *Recorder is a valid,
// disabled recorder: every method is nil-safe and free.
type Recorder struct {
	seed      uint64
	threshold uint64 // sample iff mix64(id^seed) <= threshold
	slowNS    int64
	shards    [shardCount]shard
	forced    []atomic.Uint64 // lossy open-addressed forced-trace set
	nextID    atomic.Uint64
	recorded  atomic.Uint64
	dropped   atomic.Uint64 // ring overwrites
}

const (
	shardCount  = 8   // ring buffers; a power of two
	forcedSlots = 256 // power of two
)

type shard struct {
	mu   sync.Mutex
	next uint64 // total spans ever written; ring slot = next % len(ring)
	ring []Span
}

// New builds a Recorder. See Config for defaults.
func New(cfg Config) *Recorder {
	cap := cfg.ShardCap
	if cap <= 0 {
		cap = 1024
	}
	r := &Recorder{
		seed:   cfg.Seed,
		slowNS: int64(cfg.SlowThreshold),
		forced: make([]atomic.Uint64, forcedSlots),
	}
	for i := range r.shards {
		r.shards[i].ring = make([]Span, cap)
	}
	switch rate := cfg.SampleRate; {
	case rate >= 1:
		r.threshold = ^uint64(0)
	case rate > 0:
		r.threshold = uint64(rate * float64(^uint64(0)))
	}
	return r
}

// NewID mints a trace ID. IDs are deterministic for a given seed and
// call order (an atomic counter mixed with the seed), well spread, and
// never zero — zero means "untraced" on the wire.
func (r *Recorder) NewID() uint64 {
	if r == nil {
		return 0
	}
	id := mix64(r.seed + r.nextID.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// Sampled reports the head-sampling decision for a trace ID. Pure
// arithmetic: deterministic in (seed, id).
func (r *Recorder) Sampled(id uint64) bool {
	if r == nil || id == 0 {
		return false
	}
	return r.threshold != 0 && mix64(id^r.seed) <= r.threshold
}

// Force marks a trace for capture from now on, independent of the
// sampling decision. The set is small and lossy (a colliding later
// trace evicts), which is fine: it exists to extend capture of an
// anomalous trace through its remaining stages, not to be a registry.
func (r *Recorder) Force(id uint64) {
	if r == nil || id == 0 {
		return
	}
	r.forced[mix64(id)&(forcedSlots-1)].Store(id)
}

func (r *Recorder) isForced(id uint64) bool {
	return r.forced[mix64(id)&(forcedSlots-1)].Load() == id
}

// End closes a span and records it if the trace is sampled, forced, or
// the span itself is anomalous or slow (which also forces the rest of
// the trace). Returns whether the span was kept. Nil-safe; spans with
// a zero trace ID are never recorded.
func (r *Recorder) End(sp Span, outcome Outcome) bool {
	if r == nil || sp.TraceID == 0 {
		return false
	}
	sp.Outcome = outcome
	sp.Duration = time.Now().UnixNano() - sp.Start
	return r.Record(sp)
}

// Record applies the keep/drop decision to a complete span (one whose
// Duration the caller has already set — used for after-the-fact spans
// like queue-wait and fsync attribution). The fast path for an
// unsampled, unforced, unremarkable span is the seeded hash compare
// plus one atomic load.
func (r *Recorder) Record(sp Span) bool {
	if r == nil || sp.TraceID == 0 {
		return false
	}
	anomalous := sp.Outcome.Anomalous() || (r.slowNS > 0 && sp.Duration >= r.slowNS)
	if !anomalous && !r.Sampled(sp.TraceID) && !r.isForced(sp.TraceID) {
		return false
	}
	if anomalous {
		r.Force(sp.TraceID)
	}
	sh := &r.shards[mix64(sp.TraceID)&(shardCount-1)]
	sh.mu.Lock()
	if sh.next >= uint64(len(sh.ring)) {
		r.dropped.Add(1)
	}
	sh.ring[sh.next%uint64(len(sh.ring))] = sp
	sh.next++
	sh.mu.Unlock()
	r.recorded.Add(1)
	return true
}

// Snapshot copies out every live span, ordered by start time (stage
// order as tiebreak so same-nanosecond stages render in lifecycle
// order). Cost is proportional to the ring capacity; it is a pull-side
// operation and never blocks writers for longer than one shard copy.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, 0, 256)
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n := sh.next
		if n > uint64(len(sh.ring)) {
			n = uint64(len(sh.ring))
		}
		for j := uint64(0); j < n; j++ {
			out = append(out, sh.ring[j])
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Start != out[b].Start {
			return out[a].Start < out[b].Start
		}
		if out[a].TraceID != out[b].TraceID {
			return out[a].TraceID < out[b].TraceID
		}
		return out[a].Stage < out[b].Stage
	})
	return out
}

// TraceSpans returns the captured spans of one trace, in snapshot
// order.
func (r *Recorder) TraceSpans(id uint64) []Span {
	var out []Span
	for _, sp := range r.Snapshot() {
		if sp.TraceID == id {
			out = append(out, sp)
		}
	}
	return out
}

// Stats returns how many spans were recorded and how many ring slots
// were overwritten before being snapshotted.
func (r *Recorder) Stats() (recorded, dropped uint64) {
	if r == nil {
		return 0, 0
	}
	return r.recorded.Load(), r.dropped.Load()
}

// FormatID renders a trace ID for the wire and for alert payloads
// (lower-case hex, no padding). Zero renders as "0" but should not be
// put on the wire — zero means untraced.
func FormatID(id uint64) string { return formatHex(id) }

// ParseID parses FormatID output; returns 0 for anything malformed.
func ParseID(s string) uint64 {
	if s == "" || len(s) > 16 {
		return 0
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v<<4 | uint64(c-'A'+10)
		default:
			return 0
		}
	}
	return v
}

func formatHex(id uint64) string {
	if id == 0 {
		return "0"
	}
	var buf [16]byte
	i := len(buf)
	for id > 0 {
		i--
		buf[i] = "0123456789abcdef"[id&0xf]
		id >>= 4
	}
	return string(buf[i:])
}

// mix64 is the splitmix64 finalizer: a cheap, high-quality 64-bit
// mixer used for sharding, the forced-set probe, and the seeded
// sampling decision.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
