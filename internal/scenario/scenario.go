// Package scenario drives reproducible whole-stack load scenarios —
// named traffic shapes run against a complete in-process deployment
// (broker, security extension, relay, admission control) on the
// simulated network. Each run emits a schema-stable Summary that CI
// archives and gates on: throughput, delivery latency quantiles, drops
// by cause, and an explicit anomaly list. A scenario with a non-empty
// anomaly list failed; everything else in the summary is evidence.
package scenario

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jxtaoverlay/internal/admission"
	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/relay"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/telemetry"
	"jxtaoverlay/internal/trace"
	"jxtaoverlay/internal/userdb"
)

// Names lists the runnable scenarios.
func Names() []string {
	return []string{"join-storm", "drain-spike", "parse-flood", "slow-sender", "partition-churn"}
}

// Options parameterize a scenario run. Zero values take per-scenario
// defaults, so Run(name, Options{}) is always valid.
type Options struct {
	// Clients is the peer population (0 = scenario default).
	Clients int
	// Rounds is the per-sender message (or flood-document) count
	// (0 = scenario default).
	Rounds int
	// Profile names the simnet link profile: local, lan, wan
	// ("" = lan).
	Profile string
	// Registry, when set, gets the deployment's telemetry collectors
	// registered into it, so a /metrics endpoint serving it exposes the
	// run live. When nil the harness uses a private registry — the
	// delivery-latency quantiles in the Summary come from the
	// client-library histogram either way.
	Registry *telemetry.Registry
	// Tracer, when set, records message-lifecycle spans for the whole
	// deployment: clients, broker dispatch, relay queues. Serve its
	// DebugHandler (or run `admin trace`) to inspect the waterfalls.
	Tracer *trace.Recorder
	// AuditDir, when set, opens a tamper-evident audit journal there
	// and attaches it to the whole deployment (broker, relay, every
	// client). The directory survives the run so `admin audit verify`
	// can walk the chain afterwards — CI does exactly that. Small
	// segments and a low checkpoint interval are deliberate: a scenario
	// run should exercise rotation and sealing, not just appends.
	AuditDir string
	// OnAudit, if set, receives the journal opened for AuditDir before
	// any traffic runs. The scenario driver uses it to point an
	// already-serving /debug/audit route at the live journal (the
	// telemetry mux is built before the scenario stack exists).
	OnAudit func(*audit.Journal)
	// Timeout bounds the whole run (0 = 2 minutes).
	Timeout time.Duration
}

// Summary is the machine-readable result of one scenario run. The
// field set is the CI contract: fields may be added, never renamed or
// removed, and every field is always present in the JSON (no omitempty
// on gated fields), so downstream jq expressions cannot silently read
// a missing key as null.
type Summary struct {
	Scenario     string  `json:"scenario"`
	Profile      string  `json:"profile"`
	Clients      int     `json:"clients"`
	Rounds       int     `json:"rounds"`
	DurationSec  float64 `json:"duration_sec"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	// Delivered counts the scenario's unit of successful work: logins
	// for join-storm, secure message deliveries otherwise.
	Delivered int64 `json:"delivered"`
	// Delivery latency quantiles in milliseconds, measured end to end
	// from the sender stamping the message to the recipient's event
	// (for drain-spike this includes the queued wait — that is the
	// point). Zero when the scenario recorded no deliveries.
	P50DeliveryMS float64 `json:"p50_delivery_ms"`
	P99DeliveryMS float64 `json:"p99_delivery_ms"`
	// Drops counts losses by cause. Keys are stable: relay-overflow,
	// relay-quota, relay-expired, relay-skipped, net-dropped,
	// rate-limited. A cause that cannot occur in a scenario is simply
	// absent; a present key is always a real count.
	Drops map[string]int64 `json:"drops"`
	// HostileRejected counts intentionally malformed inputs the stack
	// refused (parse-flood). Rejections are the scenario succeeding,
	// so they are not drops.
	HostileRejected int64 `json:"hostile_rejected"`
	// Alerts counts SecurityAlert events on the broker's bus.
	Alerts int64 `json:"alerts"`
	// AuditRecords counts event records appended to the audit journal
	// (0 when the run had no AuditDir).
	AuditRecords int64 `json:"audit_records"`
	// Liveness and resilience evidence (PR 10). Populated by
	// partition-churn; zero (but always present) elsewhere.
	// HeartbeatsRenewed counts heartbeat renewals the broker accepted.
	HeartbeatsRenewed int64 `json:"heartbeats_renewed"`
	// LeasesExpired counts presence leases lapsed by missed heartbeats.
	LeasesExpired int64 `json:"leases_expired"`
	// Resumes counts successful client session resumes; ResumeAttempts
	// the login attempts they took (the reconnect-storm bound gates on
	// attempts, not successes).
	Resumes        int64 `json:"resumes"`
	ResumeAttempts int64 `json:"resume_attempts"`
	// Retries counts resilient-call attempts beyond the first.
	Retries int64 `json:"retries"`
	// IdemDeduped counts retried mutations the broker's dedup window
	// collapsed (each one is a double-execution that did not happen).
	IdemDeduped int64 `json:"idem_deduped"`
	// DuplicateOpens counts message deliveries a recipient saw more
	// than once — the churn contract demands zero.
	DuplicateOpens int64 `json:"duplicate_opens"`
	// RelayRecovered counts slices rebuilt from the WAL by the
	// mid-traffic relay restart.
	RelayRecovered int64 `json:"relay_recovered"`
	// Anomalies is the gate: human-readable descriptions of everything
	// that deviated from the scenario's contract. Empty means pass.
	Anomalies []string `json:"anomalies"`

	// anomaly() is called from scenario worker goroutines.
	mu sync.Mutex
}

func (s *Summary) anomaly(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Anomalies = append(s.Anomalies, fmt.Sprintf(format, args...))
}

// Run executes one named scenario and returns its summary. The error
// return is reserved for harness failures (bad name, setup errors);
// scenario-level deviations land in Summary.Anomalies instead, so a
// degraded run still produces its evidence.
func Run(name string, opt Options) (*Summary, error) {
	if opt.Profile == "" {
		opt.Profile = "lan"
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 2 * time.Minute
	}
	if opt.Registry == nil {
		// The Summary's delivery quantiles are read from the
		// client-library histogram, which lives in a registry — give the
		// run a private one when the caller did not supply theirs.
		opt.Registry = telemetry.New()
	}
	profile, err := simnet.ProfileByName(opt.Profile)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opt.Timeout)
	defer cancel()
	switch name {
	case "join-storm":
		return joinStorm(ctx, opt, profile)
	case "drain-spike":
		return drainSpike(ctx, opt, profile)
	case "parse-flood":
		return parseFlood(ctx, opt, profile)
	case "slow-sender":
		return slowSender(ctx, opt, profile)
	case "partition-churn":
		return partitionChurn(ctx, opt, profile)
	}
	return nil, fmt.Errorf("scenario: unknown scenario %q (have %s)", name, strings.Join(Names(), ", "))
}

// --- shared harness ---

// stack is one complete secure deployment on a seeded network: the
// same seed and traffic shape replay the same run.
type stack struct {
	net *simnet.Network
	dep *core.Deployment
	br  *broker.Broker
	bs  *core.BrokerSecurity
	rly *relay.Relay
	adm *admission.Limiter
	db  *userdb.Store
	reg *telemetry.Registry
	tr  *trace.Recorder
	aud *audit.Journal

	alerts atomic.Int64

	mu      sync.Mutex
	closers []func()
}

// newStack builds the deployment. A non-zero leaseTTL enables presence
// leases (partition-churn heartbeats against it); zero keeps the
// pre-liveness behavior the other scenarios were gated on.
func newStack(nClients int, profile simnet.LinkProfile, admCfg *admission.Config, relayCfg core.RelayConfig, leaseTTL time.Duration, opt Options) (*stack, error) {
	reg := opt.Registry
	s := &stack{net: simnet.NewNetworkSeeded(profile, 42), reg: reg, tr: opt.Tracer}
	s.closers = append(s.closers, s.net.Close)
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	dep, err := core.NewDeployment("scn-admin", 0)
	if err != nil {
		return nil, err
	}
	s.dep = dep
	s.db = userdb.NewStoreIter(128)
	for i := 0; i < nClients; i++ {
		if err := s.db.Register(user(i), pw(i), "plenary"); err != nil {
			return nil, err
		}
	}
	site, err := dep.StartBroker(
		broker.Config{Name: "scn-broker", Net: s.net, DB: broker.LocalDB(s.db), RequireSecureLogin: true},
		core.BrokerConfig{RequireSignedAdvs: true, LeaseTTL: leaseTTL})
	if err != nil {
		return nil, err
	}
	br, bs := site.Broker, site.Security
	s.br, s.bs = br, bs
	if opt.AuditDir != "" {
		// Its closer goes in before the broker's so that it closes after
		// broker and relay — their shutdown still emits presence and drop
		// records. Small segments + frequent checkpoints make a normal
		// run exercise rotation and sealing.
		aud, aerr := audit.Open(audit.Options{
			Dir:             opt.AuditDir,
			SyncInterval:    2 * time.Millisecond,
			SegmentBytes:    8 << 10,
			CheckpointEvery: 32,
			Signer:          site.KeyPair,
			Chain:           []*cred.Credential{site.Credential},
		})
		if aerr != nil {
			site.Close()
			return nil, aerr
		}
		s.aud = aud
		s.closers = append(s.closers, func() { _ = aud.Close() })
		if opt.OnAudit != nil {
			opt.OnAudit(aud)
		}
	}
	s.closers = append(s.closers, site.Close)
	// The broker's recorder (and audit journal) are installed before
	// the relay attaches so EnableBrokerRelay inherits them for the
	// queue-side stages and drop records.
	br.SetTracer(opt.Tracer)
	br.SetAuditor(s.aud)
	rly, err := core.EnableBrokerRelay(br, relayCfg)
	if err != nil {
		return nil, err
	}
	s.rly = rly
	s.closers = append(s.closers, rly.Close)
	if admCfg != nil {
		s.adm = admission.New(*admCfg)
		br.EnableAdmission(s.adm)
	}
	br.Bus().Subscribe(events.SecurityAlert, func(events.Event) { s.alerts.Add(1) })
	if reg != nil {
		core.RegisterBrokerTelemetry(reg, br, bs, rly, s.adm, s.aud)
	}
	ok = true
	return s, nil
}

func (s *stack) close() {
	s.mu.Lock()
	closers := s.closers
	s.closers = nil
	s.mu.Unlock()
	for i := len(closers) - 1; i >= 0; i-- {
		closers[i]()
	}
}

func (s *stack) onClose(f func()) {
	s.mu.Lock()
	s.closers = append(s.closers, f)
	s.mu.Unlock()
}

// join brings one secure client up: connect, verify, login.
func (s *stack) join(ctx context.Context, i int, rec *recorder) (*core.SecureClient, error) {
	sc, err := s.client(i)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rec.watch(sc.Bus())
	}
	if err := sc.Join(ctx, s.br.PeerID(), pw(i)); err != nil {
		return nil, err
	}
	return sc, nil
}

// client boots peer i's client, closed with the stack. Every client
// shares the registry's delivery histogram (idempotent registration),
// the deployment's span recorder and its audit journal.
func (s *stack) client(i int, opts ...core.Option) (*core.SecureClient, error) {
	sc, err := s.dep.NewClient(s.net, user(i), opts...)
	if err != nil {
		return nil, err
	}
	s.onClose(sc.Close)
	sc.BindTelemetry(s.reg)
	sc.SetTracer(s.tr)
	sc.SetAuditor(s.aud)
	return sc, nil
}

func user(i int) string { return fmt.Sprintf("peer%03d", i) }
func pw(i int) string   { return fmt.Sprintf("pw-%03d", i) }

// --- delivery accounting ---

// recorder counts SecureMessage deliveries per recipient bus. Latency
// is NOT measured here anymore: the client library observes (now -
// signed SentAt) into its registry histogram on every successful open,
// and deliveryQuantiles reads that instrument — the same quantiles a
// production peer exports over /metrics, with no body stamping.
type recorder struct {
	mu sync.Mutex
	n  int64
	by map[keys.PeerID]int64 // deliveries by sender
}

func newRecorder() *recorder { return &recorder{by: make(map[keys.PeerID]int64)} }

func (r *recorder) watch(bus *events.Bus) {
	bus.Subscribe(events.SecureMessage, func(e events.Event) {
		r.mu.Lock()
		r.n++
		r.by[e.From]++
		r.mu.Unlock()
	})
}

func (r *recorder) count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

func (r *recorder) bySender(id keys.PeerID) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.by[id]
}

// deliveryQuantiles reads the p50/p99 end-to-end delivery latency (ms)
// from the client-library histogram shared by every client bound to
// the run's registry.
func deliveryQuantiles(reg *telemetry.Registry) (p50, p99 float64) {
	h := reg.Histogram(client.DeliveryLatencyMetric,
		"end-to-end secure delivery latency: signed seal time to local open (ms)",
		telemetry.LatencyBucketsMS)
	if h.Count() == 0 {
		return 0, 0
	}
	return h.Quantile(0.50), h.Quantile(0.99)
}

func quantileMS(lat []time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := int(q * float64(len(lat)))
	if idx >= len(lat) {
		idx = len(lat) - 1
	}
	return float64(lat[idx]) / float64(time.Millisecond)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(ctx context.Context, d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if cond() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return cond()
}

// relayDrops folds the relay's loss counters into the summary's drops
// map and reports them as anomalies: no scenario here is allowed to
// shed relay traffic.
func relayDrops(sum *Summary, m relay.Metrics) {
	sum.Drops["relay-overflow"] = int64(m.DroppedOverflow)
	sum.Drops["relay-quota"] = int64(m.DroppedQuota)
	sum.Drops["relay-expired"] = int64(m.Expired)
	for _, k := range []string{"relay-overflow", "relay-quota", "relay-expired"} {
		if n := sum.Drops[k]; n > 0 {
			sum.anomaly("%d slices lost to %s", n, k)
		}
	}
}
