package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
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

const (
	benchGroup = "bench"
	// opTimeout is how long a generator waits for one op's deliveries
	// before counting it failed.
	opTimeout = 10 * time.Second
	// The admission rate sits far above anything two closed-loop flows
	// can offer: Allow runs on every broker dispatch and never refuses.
	admissionRate = 1e6
	// Every offline queue holds one whole offline-drain cycle.
	relayQueueCap = 4096
	stagedSync    = 2 * time.Millisecond
	leaseTTL      = 10 * time.Minute
)

// env is the full secure stack the ROADMAP names, in one process on a
// zero-latency fabric: secure login required, signed advertisements
// required, admission on, relay on a WAL, audit journal, presence
// leases, user database at its shipped PBKDF2 cost.
type env struct {
	dir    string
	net    *simnet.Network
	dep    *core.Deployment
	db     *userdb.Store
	br     *broker.Broker
	bs     *core.BrokerSecurity
	rly    *relay.Relay
	adm    *admission.Limiter
	aud    *audit.Journal
	reg    *telemetry.Registry
	tracer *trace.Recorder

	brKP   *keys.KeyPair
	brCred *cred.Credential

	alerts  atomic.Int64 // SecurityAlert events, broker and every client
	closers []func()

	// What the per-layer pass reads counters from: every key pair in
	// play and the peers that live as long as the deployment.
	mu        sync.Mutex
	signers   map[*keys.KeyPair]struct{}
	longLived []*peer
}

// newEnv builds the deployment under dir (WAL and audit segments) for
// the given users. tracer may be nil.
func newEnv(dir string, seed int64, users []user, tracer *trace.Recorder) (*env, error) {
	e := &env{dir: dir, reg: telemetry.New(), tracer: tracer, signers: map[*keys.KeyPair]struct{}{}}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()

	e.net = simnet.NewNetworkSeeded(simnet.ProfileLocal, seed)
	e.onClose(e.net.Close)

	adminKP, err := loadKey("admin")
	if err != nil {
		return nil, err
	}
	if e.dep, err = core.NewDeploymentFromKey(adminKP, "perf-admin"); err != nil {
		return nil, err
	}
	e.signers[adminKP] = struct{}{}
	e.db = userdb.NewStore()
	for _, u := range users {
		if err := e.db.Register(u.alias, peerPassword(u.alias), u.groups...); err != nil {
			return nil, err
		}
	}
	if e.brKP, err = loadKey("broker"); err != nil {
		return nil, err
	}
	e.signers[e.brKP] = struct{}{}
	if e.brCred, err = e.dep.IssueBrokerCredential(e.brKP.Public(), "perf-broker", 24*time.Hour); err != nil {
		return nil, err
	}
	trust, err := e.dep.TrustStore()
	if err != nil {
		return nil, err
	}

	auditDir := filepath.Join(dir, "audit")
	walDir := filepath.Join(dir, "wal")
	for _, d := range []string{auditDir, walDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	// Opened before the broker so it closes after broker and relay,
	// whose shutdown still emits records.
	e.aud, err = audit.Open(audit.Options{
		Dir:          auditDir,
		SyncInterval: stagedSync,
		Signer:       e.brKP,
		Chain:        []*cred.Credential{e.brCred},
	})
	if err != nil {
		return nil, err
	}
	e.onClose(func() { _ = e.aud.Close() })

	e.br, err = broker.New(broker.Config{
		Name: "perf-broker", PeerID: e.brCred.Subject, Net: e.net,
		DB: broker.AuthenticatorFunc(func(_ context.Context, u, p string) ([]string, error) {
			return e.db.Authenticate(u, p)
		}),
		RequireSecureLogin: true,
	})
	if err != nil {
		return nil, err
	}
	e.onClose(e.br.Close)
	e.bs, err = core.EnableBrokerSecurity(e.br, core.BrokerConfig{
		KeyPair: e.brKP, Credential: e.brCred, Trust: trust,
		RequireSignedAdvs: true, LeaseTTL: leaseTTL,
	})
	if err != nil {
		return nil, err
	}
	e.onClose(e.bs.Close)
	e.br.SetTracer(tracer)
	e.br.SetAuditor(e.aud)

	relayCfg := core.RelayConfig{}
	relayCfg.QueueCap = relayQueueCap
	relayCfg.WAL.Dir = walDir
	relayCfg.WAL.SyncInterval = stagedSync
	if e.rly, err = core.EnableBrokerRelay(e.br, relayCfg); err != nil {
		return nil, err
	}
	e.onClose(e.rly.Close)

	e.adm = admission.New(admission.Config{Rate: admissionRate, Burst: admissionRate})
	e.br.EnableAdmission(e.adm)
	e.br.Bus().Subscribe(events.SecurityAlert, func(events.Event) { e.alerts.Add(1) })
	core.RegisterBrokerTelemetry(e.reg, e.br, e.bs, e.rly, e.adm, e.aud)
	ok = true
	return e, nil
}

func (e *env) onClose(f func()) { e.closers = append(e.closers, f) }

// close tears the deployment down in reverse order of construction.
func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

// peer is one overlay client on a fixture identity.
type peer struct {
	alias string
	kp    *keys.KeyPair
	sc    *core.SecureClient
	guard *core.ReplayGuard
}

func (p *peer) id() keys.PeerID { return p.sc.PeerID() }

// newPeer attaches a logged-out secure client for alias, built the way
// a recipient is in production: replay guard on, telemetry bound.
func (e *env) newPeer(alias string, kp *keys.KeyPair) (*peer, error) {
	mem, err := newFixedMembership(alias, kp)
	if err != nil {
		return nil, err
	}
	cl, err := client.New(e.net, mem, alias)
	if err != nil {
		return nil, err
	}
	trust, err := e.dep.TrustStore()
	if err != nil {
		cl.Close()
		return nil, err
	}
	guard := core.NewReplayGuard(0, 0)
	sc, err := core.NewSecureClient(cl, trust, core.WithReplayGuard(guard))
	if err != nil {
		cl.Close()
		return nil, err
	}
	cl.BindTelemetry(e.reg)
	cl.SetTracer(e.tracer)
	sc.SetAuditor(e.aud)
	cl.Bus().Subscribe(events.SecurityAlert, func(events.Event) { e.alerts.Add(1) })
	e.mu.Lock()
	e.signers[kp] = struct{}{}
	e.mu.Unlock()
	return &peer{alias: alias, kp: kp, sc: sc, guard: guard}, nil
}

// join is the paper's secure join: secureConnection then secureLogin.
func (e *env) join(ctx context.Context, p *peer) error {
	if err := p.sc.SecureConnection(ctx, e.br.PeerID()); err != nil {
		return fmt.Errorf("%s secureConnection: %w", p.alias, err)
	}
	if err := p.sc.SecureLogin(ctx, peerPassword(p.alias)); err != nil {
		return fmt.Errorf("%s secureLogin: %w", p.alias, err)
	}
	return nil
}

// residents loads, attaches and joins n peers on aliases[0:n]; the
// clients are closed with the environment.
func (e *env) residents(ctx context.Context, aliases []string) ([]*peer, error) {
	out := make([]*peer, len(aliases))
	for i, a := range aliases {
		kp, err := loadKey(a)
		if err != nil {
			return nil, err
		}
		p, err := e.newPeer(a, kp)
		if err != nil {
			return nil, err
		}
		e.onClose(p.sc.Close)
		if err := e.join(ctx, p); err != nil {
			return nil, err
		}
		out[i] = p
	}
	e.mu.Lock()
	e.longLived = append(e.longLived, out...)
	e.mu.Unlock()
	return out, nil
}

// fillReplayGuard brings a recipient's replay window to the state it
// is in under sustained load: full. The default guard tracks 4096
// digests for two minutes and every flow here refills that in seconds,
// so an empty guard would be a start-up transient that flips regime in
// the middle of the timed phase.
func fillReplayGuard(g *core.ReplayGuard, salt string) {
	now := time.Now()
	// Full is when one more admission no longer grows the table; the
	// iteration cap only guards against a future unbounded guard.
	for i, prev := 0, -1; g.Len() > prev && i < 1<<16; i++ {
		prev = g.Len()
		wire := fmt.Sprintf("%s/%07d", salt, i)
		_ = g.Check([]byte(wire), now) // a fresh digest inside the window is always admitted
	}
}

// violations are the counters that must not move in any run.
type violations struct {
	Alerts         int64  `json:"security_alerts"`
	RelayDropped   uint64 `json:"relay_dropped"`
	DeliverErrors  uint64 `json:"relay_deliver_errors"`
	WALErrors      uint64 `json:"wal_errors"`
	AdmissionLimit uint64 `json:"admission_refused"`
	NetDropped     uint64 `json:"simnet_dropped"`
	AuditLost      uint64 `json:"audit_lost"`
}

func (e *env) violations() violations {
	m := e.rly.Metrics()
	return violations{
		Alerts:         e.alerts.Load(),
		RelayDropped:   m.DroppedOverflow + m.DroppedQuota + m.Expired,
		DeliverErrors:  m.DeliverErrors,
		WALErrors:      m.WALErrors,
		AdmissionLimit: e.adm.Metrics().Limited,
		NetDropped:     e.net.Stats().Dropped,
		AuditLost:      e.aud.Stats().Lost,
	}
}

func (v violations) any() bool { return v != violations{} }
