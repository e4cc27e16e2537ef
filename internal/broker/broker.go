// Package broker implements the Broker Module: the super-peer that
// controls access to a JXTA-Overlay network. Brokers authenticate end
// users against the central database, organize them into overlapping
// groups, maintain a global index of advertisements and resources, relay
// traffic for NATed client peers, and propagate peer information across
// group members.
//
// The module reproduces the original (insecure) broker faithfully —
// plaintext login, no advertisement verification, no proof of broker
// legitimacy — and exposes extension points (RegisterOp, RegisterPeer,
// RequireSignedAdv) that internal/core uses to graft the paper's
// security extension on top.
package broker

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jxtaoverlay/internal/admission"
	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/control"
	"jxtaoverlay/internal/discovery"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/parallel"
	"jxtaoverlay/internal/peergroup"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/trace"
	"jxtaoverlay/internal/xmldoc"
)

// Authenticator abstracts the central database connection: the local
// Store in small deployments, the authenticated remote client in
// distributed ones.
type Authenticator interface {
	Authenticate(ctx context.Context, username, password string) ([]string, error)
}

// AuthenticatorFunc adapts a function to Authenticator.
type AuthenticatorFunc func(ctx context.Context, username, password string) ([]string, error)

// Authenticate implements Authenticator.
func (f AuthenticatorFunc) Authenticate(ctx context.Context, u, p string) ([]string, error) {
	return f(ctx, u, p)
}

// LocalDB adapts an in-process user store — anything with
// Authenticate(username, password), as *userdb.Store has — to
// Authenticator.
func LocalDB(store interface {
	Authenticate(username, password string) ([]string, error)
}) Authenticator {
	return AuthenticatorFunc(func(_ context.Context, u, p string) ([]string, error) {
		return store.Authenticate(u, p)
	})
}

// OpTimeout bounds database lookups triggered by operations.
const OpTimeout = 10 * time.Second

// PeerInfo is the broker's view of a connected client peer.
type PeerInfo struct {
	ID          keys.PeerID
	Username    string
	Groups      []string
	Online      bool
	ConnectedAt time.Time
	// Origin is the federated broker the peer is logged into, or empty
	// for peers connected to this broker directly.
	Origin keys.PeerID
}

// Local reports whether the peer is connected to this broker directly.
func (p PeerInfo) Local() bool { return p.Origin == "" }

// OpHandler processes one broker operation.
type OpHandler func(from keys.PeerID, msg *endpoint.Message) *endpoint.Message

// AdvVerifier validates a published advertisement document before the
// broker accepts and propagates it, and returns the parsed
// advertisement so the broker never parses a document twice (the
// verifier already had to parse it for the ownership check). The
// security extension installs one backed by xdsig; nil accepts
// everything (the original behaviour) and leaves parsing to the broker.
type AdvVerifier func(doc *xmldoc.Element) (advert.Advertisement, error)

// Config parameterizes a broker.
type Config struct {
	// Name is the broker's deployment name (its "well-known identifier").
	Name string
	// PeerID is the broker's overlay identifier.
	PeerID keys.PeerID
	// Net is the transport to attach to.
	Net endpoint.Transport
	// DB is the central database connection.
	DB Authenticator
	// RequireSecureLogin rejects the plaintext login primitive, forcing
	// clients through the security extension.
	RequireSecureLogin bool
}

// Broker is a running broker instance.
type Broker struct {
	cfg    Config
	ep     *endpoint.Service
	ctl    *control.Module
	groups *peergroup.Registry

	mu          sync.RWMutex
	peers       map[keys.PeerID]*PeerInfo
	ops         map[string]OpHandler
	advVerifier AdvVerifier
	federation  []keys.PeerID
	adm         *admission.Limiter

	// Lifecycle span recorder (nil pointer load = tracing off). An
	// atomic pointer so SetTracer needs no lock against the dispatch
	// path.
	tracer atomic.Pointer[trace.Recorder]

	// Tamper-evident security event journal (nil pointer load = audit
	// off; Journal.Record is nil-safe). Same lock-free install as the
	// tracer.
	auditor atomic.Pointer[audit.Journal]

	// Idempotency dedup window for retried mutating ops (see idem.go).
	idem *idemCache

	// Operation counters (see Stats). Plain atomics on the dispatch
	// path; the telemetry layer reads them through pull collectors.
	opsDispatched    atomic.Uint64
	opsFailed        atomic.Uint64
	opsRateLimited   atomic.Uint64
	advsPublished    atomic.Uint64
	fedAdvsAccepted  atomic.Uint64
	fedStalePresence atomic.Uint64
	idemDeduped      atomic.Uint64
}

// Stats is a snapshot of the broker's operation counters.
type Stats struct {
	// OpsDispatched counts operations routed to a handler (rate-limited
	// refusals included, unknown ops excluded).
	OpsDispatched uint64
	// OpsFailed counts operations answered with an error token.
	OpsFailed uint64
	// OpsRateLimited counts operations refused by admission control.
	OpsRateLimited uint64
	// AdvsPublished counts advertisements accepted via publishAdv.
	AdvsPublished uint64
	// FedAdvsAccepted counts federation-forwarded advertisements
	// accepted into the local cache.
	FedAdvsAccepted uint64
	// FedStalePresence counts federation presence updates discarded by
	// the monotonic session guard.
	FedStalePresence uint64
	// IdemDeduped counts mutating-op retries answered from the
	// idempotency dedup window instead of re-executing the handler.
	IdemDeduped uint64
	// PeersOnline / PeersKnown are the live and total session records.
	PeersOnline int
	PeersKnown  int
}

// Stats returns a snapshot of the broker's counters and roster sizes.
func (b *Broker) Stats() Stats {
	b.mu.RLock()
	known := len(b.peers)
	online := 0
	for _, p := range b.peers {
		if p.Online {
			online++
		}
	}
	b.mu.RUnlock()
	return Stats{
		OpsDispatched:    b.opsDispatched.Load(),
		OpsFailed:        b.opsFailed.Load(),
		OpsRateLimited:   b.opsRateLimited.Load(),
		AdvsPublished:    b.advsPublished.Load(),
		FedAdvsAccepted:  b.fedAdvsAccepted.Load(),
		FedStalePresence: b.fedStalePresence.Load(),
		IdemDeduped:      b.idemDeduped.Load(),
		PeersOnline:      online,
		PeersKnown:       known,
	}
}

// New attaches a broker to the network and registers its operations.
func New(cfg Config) (*Broker, error) {
	if cfg.Name == "" || cfg.PeerID == "" || cfg.Net == nil {
		return nil, errors.New("broker: Name, PeerID and Net are required")
	}
	if cfg.DB == nil {
		return nil, errors.New("broker: a database connection is required")
	}
	ep, err := endpoint.NewService(cfg.Net, cfg.PeerID)
	if err != nil {
		return nil, err
	}
	ep.EnableRelaying(true)
	b := &Broker{
		cfg:    cfg,
		ep:     ep,
		ctl:    control.New(ep, discovery.NewCache(ep.Now), events.NewBus(), nil),
		groups: peergroup.NewRegistry(),
		peers:  make(map[keys.PeerID]*PeerInfo),
		ops:    make(map[string]OpHandler),
		idem:   newIdemCache(),
	}
	b.registerDefaultOps()
	b.registerFederationOps()
	ep.RegisterHandler(proto.BrokerService, b.dispatch)
	return b, nil
}

// Accessors used by the security extension and diagnostics.

// Name returns the broker's deployment name.
func (b *Broker) Name() string { return b.cfg.Name }

// PeerID returns the broker's overlay identifier.
func (b *Broker) PeerID() keys.PeerID { return b.cfg.PeerID }

// Endpoint returns the broker's endpoint service.
func (b *Broker) Endpoint() *endpoint.Service { return b.ep }

// Now is the time at this broker (its endpoint's clock): what sessions,
// leases, credentials, the dedup window, the advertisement index and the
// relay attached to it are stamped and expired by.
func (b *Broker) Now() time.Time { return b.ep.Now() }

// Cache returns the broker's advertisement index.
func (b *Broker) Cache() *discovery.Cache { return b.ctl.Cache() }

// Groups returns the broker's group registry.
func (b *Broker) Groups() *peergroup.Registry { return b.groups }

// Bus returns the broker's event bus.
func (b *Broker) Bus() *events.Bus { return b.ctl.Bus() }

// DB returns the configured database connection.
func (b *Broker) DB() Authenticator { return b.cfg.DB }

// RequireSecureLogin reports whether plaintext login is disabled.
func (b *Broker) RequireSecureLogin() bool { return b.cfg.RequireSecureLogin }

// RegisterOp installs (or overrides) an operation handler; the security
// extension uses it to add secureConnection and secureLogin.
func (b *Broker) RegisterOp(op string, h OpHandler) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ops[op] = h
}

// SetAdvVerifier installs the advertisement acceptance policy.
func (b *Broker) SetAdvVerifier(v AdvVerifier) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advVerifier = v
}

// EnableAdmission installs per-credential admission control on the
// operation surface: every op a peer invokes spends one token from its
// limiter bucket, and exhausting the bucket earns the `rate-limited`
// wire refusal. Buckets are keyed by peer ID, which secure logins bind
// to the credentialed key via CBID — so the key is, in effect, the
// credential fingerprint. Federation partners are exempt: their ops
// aggregate whole-broker traffic, and their legitimacy question
// (IsPartner) is settled per handler.
func (b *Broker) EnableAdmission(l *admission.Limiter) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.adm = l
}

// Admission returns the installed limiter (nil when admission control
// is off). The relay op uses it to feed quota refusals into the same
// offender escalation.
func (b *Broker) Admission() *admission.Limiter {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.adm
}

// SetTracer installs a lifecycle span recorder on the broker: dispatch
// then records admission-stage spans, the publish pipeline records
// parse/verify/publish, and SecurityAlert payloads carry the trace ID
// of the message that earned them (key "trace") so an alert links to
// its captured trace.
func (b *Broker) SetTracer(r *trace.Recorder) {
	if r == nil {
		return
	}
	b.tracer.Store(r)
}

// Tracer returns the installed recorder (nil when tracing is off).
func (b *Broker) Tracer() *trace.Recorder { return b.tracer.Load() }

// SetAuditor installs the tamper-evident security event journal:
// offense records, admission refusals, SecurityAlerts and presence
// transitions are appended to it from then on, each with the trace ID
// of the message that caused it (key "audit" in alert payloads carries
// the journal sequence number, so an alert is joinable to both its
// audit record and its trace waterfall).
func (b *Broker) SetAuditor(j *audit.Journal) {
	if j == nil {
		return
	}
	b.auditor.Store(j)
}

// Auditor returns the installed journal (nil when auditing is off).
// The relay and security extension inherit it so one SetAuditor call
// covers the whole deployment.
func (b *Broker) Auditor() *audit.Journal { return b.auditor.Load() }

// Audit appends one event to the installed journal and returns its
// sequence number (0 when auditing is off). Exposed for the op
// handlers grafted on by internal/core.
func (b *Broker) Audit(e audit.Event) uint64 { return b.auditor.Load().Record(e) }

// TraceID extracts the message's lifecycle trace ID (0 when tracing is
// off or the message is untraced). Op handlers outside this package
// (relay, security extension) use it to continue the sender's trace.
func (b *Broker) TraceID(msg *endpoint.Message) uint64 {
	if b.tracer.Load() == nil {
		return 0
	}
	s, ok := msg.GetString(proto.ElemTrace)
	if !ok {
		return 0
	}
	return trace.ParseID(s)
}

// RecordOffense feeds an out-of-band refusal (e.g. a relay quota
// rejection) into the offender tracking and raises the SecurityAlert
// audit event when the credential's streak crosses the threshold. A
// no-op without admission control. traceID (0 = untraced) correlates
// the alert with the refused message's captured trace.
func (b *Broker) RecordOffense(from keys.PeerID, op, reason string, traceID uint64) {
	b.Audit(audit.Event{Kind: audit.KindOffense, Peer: string(from), Op: op, Reason: reason, Trace: traceID})
	adm := b.Admission()
	if adm == nil {
		return
	}
	if d := adm.Offense(string(from)); d.Alert {
		b.emitAdmissionAlert(from, op, reason, d.Offenses, traceID)
	}
}

func (b *Broker) emitAdmissionAlert(from keys.PeerID, op, reason string, offenses int, traceID uint64) {
	payload := map[string]string{
		"reason":   reason,
		"op":       op,
		"offenses": strconv.Itoa(offenses),
	}
	if traceID != 0 {
		payload["trace"] = trace.FormatID(traceID)
	}
	// The alert's audit record is appended BEFORE the bus event so the
	// payload can carry its sequence number: an alert consumer can then
	// retrieve the durable record (/debug/audit?since=seq-1) and, via
	// the trace ID both carry, the captured waterfall.
	if seq := b.Audit(audit.Event{Kind: audit.KindAlert, Peer: string(from), Op: op, Reason: reason, Trace: traceID}); seq != 0 {
		payload["audit"] = strconv.FormatUint(seq, 10)
	}
	b.ctl.Emit(events.SecurityAlert, from, "", payload, nil)
}

func (b *Broker) dispatch(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	op, _ := msg.GetString(proto.ElemOp)
	b.mu.RLock()
	h, ok := b.ops[op]
	adm := b.adm
	b.mu.RUnlock()
	if !ok {
		return proto.Fail(proto.ErrUnknownOp)
	}
	b.opsDispatched.Add(1)
	tid := b.TraceID(msg)
	// The admission span is recorded for every traced dispatch, limiter
	// or not: "admitted in ~0" and "no limiter installed" read the same
	// in a waterfall, and the stage is always present to anchor the
	// broker side of the trace.
	var sp trace.Span
	if tid != 0 {
		sp = trace.Begin(tid, trace.StageAdmission)
		sp.SetAttr("op", op)
	}
	if adm != nil && !b.IsPartner(from) {
		if d := adm.Allow(string(from)); !d.Allowed {
			b.opsRateLimited.Add(1)
			b.opsFailed.Add(1)
			// Anomalous outcome: the recorder force-captures this span
			// (and the trace's remaining stages) even when unsampled, so
			// the alert's trace ID is always retrievable.
			b.tracer.Load().End(sp, trace.OutcomeRateLimited)
			b.Audit(audit.Event{Kind: audit.KindRateLimited, Peer: string(from), Op: op, Reason: proto.ErrRateLimited, Trace: tid})
			if d.Alert {
				b.emitAdmissionAlert(from, op, proto.ErrRateLimited, d.Offenses, tid)
			}
			// The refusal carries a backoff hint: one token's refill
			// time. Resilient clients floor their retry delay on it so
			// a fleet of retries doesn't hammer an exhausted bucket.
			return proto.Fail(proto.ErrRateLimited).
				AddString(proto.ElemRetryAfter, strconv.FormatInt(adm.RetryAfter().Milliseconds(), 10))
		}
	}
	if tid != 0 {
		b.tracer.Load().End(sp, trace.OutcomeOK)
	}
	// Idempotency dedup: a retried mutating op presenting a key the
	// window already acknowledged gets the original response back —
	// the mutation is not executed twice. Checked after admission
	// (dedup hits are cheap, but a flooder must not bypass its bucket
	// by replaying one key) and only for logged-in peers' keys of a
	// sane length: connect answers OK to anyone, so without the login
	// check a stranger could fill the table, pin that memory for the
	// window and evict honest peers' live entries. Any other key is
	// ignored — the request is dispatched as if it carried none.
	idemK, _ := msg.GetString(proto.ElemIdem)
	honoured := idemK != "" && len(idemK) <= idemMaxKeyLen && b.loggedIn(from)
	if honoured {
		if cached, ok := b.idem.lookup(from, idemK, b.Now()); ok {
			b.idemDeduped.Add(1)
			b.Audit(audit.Event{Kind: audit.KindIdemDedup, Peer: string(from), Op: op, Reason: "replayed-key", Trace: tid})
			return cached
		}
	}
	resp := h(from, msg)
	if resp != nil {
		if ok, _ := proto.IsOK(resp); !ok {
			b.opsFailed.Add(1)
		} else if honoured {
			// Only acknowledged successes are cached: a refused op
			// performed no mutation, so its retry must re-execute. No
			// handler answers with bytes of its request, so a cached
			// response holds no view of a frame.
			b.idem.store(from, idemK, resp, b.Now())
		}
	}
	return resp
}

func (b *Broker) registerDefaultOps() {
	b.ops[proto.OpConnect] = b.handleConnect
	b.ops[proto.OpLogin] = b.handleLogin
	b.ops[proto.OpLogout] = b.handleLogout
	b.ops[proto.OpPublishAdv] = b.handlePublishAdv
	b.ops[proto.OpLookupAdv] = b.handleLookupAdv
	b.ops[proto.OpLookupPipe] = b.handleLookupPipe
	b.ops[proto.OpListPeers] = b.handleListPeers
	b.ops[proto.OpGroupCreate] = b.handleGroupCreate
	b.ops[proto.OpGroupJoin] = b.handleGroupJoin
	b.ops[proto.OpGroupLeave] = b.handleGroupLeave
	b.ops[proto.OpGroupList] = b.handleGroupList
	b.ops[proto.OpFileSearch] = b.handleFileSearch
}

// --- discovery ops ---

func (b *Broker) handleConnect(from keys.PeerID, _ *endpoint.Message) *endpoint.Message {
	// The plain connect opens a channel and identifies the broker by
	// name only — nothing proves legitimacy (the vulnerability
	// secureConnection addresses).
	return proto.OK().AddString(proto.ElemBroker, b.cfg.Name)
}

func (b *Broker) handleLogin(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	if b.cfg.RequireSecureLogin {
		return proto.Fail(proto.ErrSecureRequired)
	}
	user, _ := msg.GetString(proto.ElemUser)
	pass, _ := msg.GetString(proto.ElemPass)
	if user == "" {
		return proto.Fail(proto.ErrBadRequest)
	}
	ctx, cancel := context.WithTimeout(context.Background(), OpTimeout)
	defer cancel()
	groups, err := b.cfg.DB.Authenticate(ctx, user, pass)
	if err != nil {
		return proto.Fail(proto.ErrAuthFailed)
	}
	b.RegisterPeer(from, user, groups)
	return proto.OK().AddString(proto.ElemGroups, strings.Join(groups, ","))
}

func (b *Broker) handleLogout(from keys.PeerID, _ *endpoint.Message) *endpoint.Message {
	b.UnregisterPeer(from)
	return proto.OK()
}

// RegisterPeer records a successfully authenticated peer and joins it to
// its database-assigned groups. The security extension calls it from
// secureLogin; the plain login path calls it directly.
func (b *Broker) RegisterPeer(id keys.PeerID, username string, groups []string) {
	b.registerPeer(id, username, groups, "")
}

func (b *Broker) registerPeer(id keys.PeerID, username string, groups []string, origin keys.PeerID) {
	b.registerPeerAt(id, username, groups, origin, b.Now())
}

// registerPeerAt records a session that began at the given time. The
// timestamp makes presence migration monotonic: federation partners
// deliver peer-up/peer-down messages with no ordering guarantee, so a
// stale announcement from a peer's PREVIOUS session can arrive after
// the peer already re-registered (here, or at another broker). Such an
// update must not clobber the newer record — a relay hand-off routed on
// the clobbered record would queue for a peer that is in fact logged in
// locally. Local logins always pass the guard (their session starts
// now, which is never older than what is recorded).
func (b *Broker) registerPeerAt(id keys.PeerID, username string, groups []string, origin keys.PeerID, session time.Time) {
	b.mu.Lock()
	if old, ok := b.peers[id]; ok && old.ConnectedAt.After(session) {
		b.mu.Unlock()
		b.fedStalePresence.Add(1)
		return
	}
	info := &PeerInfo{
		ID: id, Username: username,
		Groups: append([]string(nil), groups...),
		Online: true, ConnectedAt: session,
		Origin: origin,
	}
	b.peers[id] = info
	b.mu.Unlock()
	reg := b.groups
	for _, g := range groups {
		reg.Ensure("", g, "", id)
		reg.Join(g, id, username)
	}
	for _, g := range groups {
		b.pushPresence(id, username, g, advert.StatusOnline)
	}
	// Announce locally connected peers to the federation; the partner
	// brokers run their own local presence propagation.
	if origin == "" {
		b.fedBroadcast(peerUpMessage(info))
	}
	b.Audit(audit.Event{Kind: audit.KindPeerUp, Peer: string(id), Op: "presence", Reason: presenceOrigin(origin)})
	b.ctl.Emit(events.PresenceUpdate, id, "", map[string]string{"user": username, "status": advert.StatusOnline}, nil)
}

// UnregisterPeer removes a peer from the network view.
func (b *Broker) UnregisterPeer(id keys.PeerID) {
	b.unregisterPeer(id, true)
}

func (b *Broker) unregisterPeer(id keys.PeerID, announce bool) {
	b.unregisterPeerAt(id, announce, b.Now(), "")
}

// ExpirePeer takes an online peer's presence down for a liveness
// reason ("lease-expired"): the security extension's lease sweeper
// calls it when a session misses its heartbeats. session is the start
// time of the session whose lease lapsed — the monotonic presence
// guard then discards an expiry racing a re-login (the new session's
// ConnectedAt is later, so the stale expiry must not take it down).
// The peer-down audit record carries the reason, distinguishing an
// expiry from a clean logout. Reports whether presence was taken down.
func (b *Broker) ExpirePeer(id keys.PeerID, reason string, session time.Time) bool {
	b.mu.RLock()
	p, ok := b.peers[id]
	online := ok && p.Online && !p.ConnectedAt.After(session)
	b.mu.RUnlock()
	if !online {
		return false
	}
	b.unregisterPeerAt(id, true, session, reason)
	return true
}

// unregisterPeerAt ends the session that was live at the given time.
// The same monotonic guard as registerPeerAt: a peer-down arriving
// after the peer already re-registered (delivery is unordered) refers
// to a session that no longer exists and must not take the new one
// offline. Local logouts always pass (their session predates now).
// reason overrides the audit record's provenance label when non-empty
// (lease expiries audit as "lease-expired", not "local").
func (b *Broker) unregisterPeerAt(id keys.PeerID, announce bool, session time.Time, reason string) {
	b.mu.Lock()
	info, ok := b.peers[id]
	if ok && info.ConnectedAt.After(session) {
		ok = false // stale: a newer session superseded the one ending here
		b.fedStalePresence.Add(1)
	}
	var local bool
	var sessionAt time.Time
	var groups []string
	var username string
	var origin keys.PeerID
	if ok {
		info.Online = false
		local = info.Origin == ""
		sessionAt = info.ConnectedAt
		// Copy what the rest of the teardown needs while still holding
		// the lock: Groups is mutated in place by join/leave, and the
		// lease sweeper runs this teardown concurrently with dispatch.
		groups = append(groups, info.Groups...)
		username, origin = info.Username, info.Origin
	}
	b.mu.Unlock()
	if !ok {
		return
	}
	reg := b.groups
	for _, g := range groups {
		b.pushPresence(id, username, g, advert.StatusOffline)
	}
	reg.LeaveAll(id)
	if announce && local {
		b.fedBroadcast(endpoint.NewMessage().
			AddString(proto.ElemOp, opFedPeerDown).
			AddString(proto.ElemPeer, string(id)).
			AddString(proto.ElemFedSession, strconv.FormatInt(sessionAt.UnixNano(), 10)))
	}
	if reason == "" {
		reason = presenceOrigin(origin)
	}
	b.Audit(audit.Event{Kind: audit.KindPeerDown, Peer: string(id), Op: "presence", Reason: reason})
	b.ctl.Emit(events.PresenceUpdate, id, "", map[string]string{"user": username, "status": advert.StatusOffline}, nil)
}

// presenceOrigin labels a presence audit record's provenance.
func presenceOrigin(origin keys.PeerID) string {
	if origin == "" {
		return "local"
	}
	return "federated"
}

// Peer returns the broker's record for a peer.
func (b *Broker) Peer(id keys.PeerID) (PeerInfo, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	p, ok := b.peers[id]
	if !ok {
		return PeerInfo{}, false
	}
	return *p, true
}

// OnlinePeers lists the online peers of a group (all groups when group
// is empty), sorted by peer ID.
func (b *Broker) OnlinePeers(group string) []PeerInfo {
	reg := b.groups
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []PeerInfo
	for _, p := range b.peers {
		if !p.Online {
			continue
		}
		if group != "" {
			if g, err := reg.Get(group); err != nil || !g.Has(p.ID) {
				continue
			}
		}
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (b *Broker) loggedIn(id keys.PeerID) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	p, ok := b.peers[id]
	return ok && p.Online
}

// memberOf enforces the JXTA-Overlay interaction rule: only members of
// the same group may interact. The empty group (network-wide data) is
// open to every logged-in peer.
func (b *Broker) memberOf(id keys.PeerID, group string) bool {
	if group == "" {
		return true
	}
	g, err := b.groups.Get(group)
	if err != nil {
		return false
	}
	return g.Has(id)
}

// --- advertisement ops ---

func (b *Broker) handlePublishAdv(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	if !b.loggedIn(from) {
		return proto.Fail(proto.ErrNotLoggedIn)
	}
	raw, ok := msg.Get(proto.ElemAdv)
	if !ok {
		return proto.Fail(proto.ErrBadRequest)
	}
	tid := b.TraceID(msg)
	tr := b.tracer.Load()
	var sp trace.Span
	// Published advertisements must be canonical wire bytes — peers
	// serialize with Canonical() — so the hardened fast-path parser is
	// both the cheap and the strict choice at this, the broker's most
	// exposed ingest surface. The parsed tree and advertisement are
	// views of what they were parsed from and are what the cache keeps for
	// the advertisement's lifetime (discovery's ownership rule), so they
	// are parsed from a copy made for the cache: a view of the request
	// frame would keep the whole frame (measured: +5.6 % live heap on
	// join-churn) for as long.
	if tid != 0 {
		sp = trace.Begin(tid, trace.StageParse)
	}
	doc, err := xmldoc.ParseCanonical(bytes.Clone(raw))
	if err != nil {
		tr.End(sp, trace.OutcomeError)
		return proto.Fail(proto.ErrBadRequest)
	}
	tr.End(sp, trace.OutcomeOK)
	// The advertisement is parsed exactly once on this path: by the
	// verifier when one is installed (it parses for the ownership check
	// anyway), by the broker otherwise. The parsed form then rides into
	// the cache via PutParsed.
	if tid != 0 {
		sp = trace.Begin(tid, trace.StageVerify)
	}
	parsed, errTok := b.verifyAndParse(doc)
	if errTok != "" {
		sp.SetAttr("err", errTok)
		tr.End(sp, trace.OutcomeError)
		return proto.Fail(errTok)
	}
	tr.End(sp, trace.OutcomeOK)
	// A peer may only publish into groups it belongs to.
	group := advGroup(parsed)
	if group != "" && !b.memberOf(from, group) {
		return proto.Fail(proto.ErrNoGroup)
	}
	if tid != 0 {
		sp = trace.Begin(tid, trace.StagePublish)
	}
	if err := b.ctl.Cache().PutParsed(doc, parsed); err != nil {
		tr.End(sp, trace.OutcomeError)
		return proto.Fail(proto.ErrBadRequest)
	}
	b.advsPublished.Add(1)
	if group != "" {
		b.PropagateAdv(doc, group, from)
	}
	b.forwardAdvToFederation(doc, from)
	tr.End(sp, trace.OutcomeOK)
	return proto.OK()
}

// verifyAndParse runs the acceptance policy and yields the
// exactly-once-parsed advertisement, or a protocol error token.
func (b *Broker) verifyAndParse(doc *xmldoc.Element) (advert.Advertisement, string) {
	b.mu.RLock()
	verifier := b.advVerifier
	b.mu.RUnlock()
	if verifier != nil {
		parsed, err := verifier(doc)
		if err != nil {
			return nil, proto.ErrUnsignedAdv
		}
		if parsed != nil {
			return parsed, ""
		}
		// Defensive: a verifier that accepts without parsing falls back
		// to the broker's own parse.
	}
	parsed, err := advert.Parse(doc)
	if err != nil {
		return nil, proto.ErrBadRequest
	}
	return parsed, ""
}

// advGroup extracts the group an advertisement belongs to, if any.
func advGroup(adv advert.Advertisement) string {
	switch a := adv.(type) {
	case *advert.Pipe:
		return a.Group
	case *advert.Presence:
		return a.Group
	case *advert.FileList:
		return a.Group
	case *advert.Stats:
		return a.Group
	default:
		return ""
	}
}

// PropagateAdv pushes an advertisement document to every locally
// connected online member of the group except the source — the broker's
// "distribute data beyond boundaries" role. Members on federated
// brokers are reached by their own broker after forwardAdvToFederation.
func (b *Broker) PropagateAdv(doc *xmldoc.Element, group string, except keys.PeerID) {
	b.propagateLocal(doc, group, except)
}

func (b *Broker) propagateLocal(doc *xmldoc.Element, group string, except keys.PeerID) {
	// The canonical bytes are rendered once (memoized on the document)
	// and shared by every recipient's message.
	push := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpAdvPush).
		Add(proto.ElemAdv, doc.Canonical())
	var targets []keys.PeerID
	for _, p := range b.OnlinePeers(group) {
		if p.ID == except || !p.Local() {
			continue
		}
		targets = append(targets, p.ID)
	}
	if len(targets) == 1 {
		_ = b.ep.Send(targets[0], proto.ClientService, push)
		return
	}
	// Fan the sends out in parallel: large groups should pay the wire
	// latency of one recipient, not the sum of all of them.
	parallel.ForEach(sendParallelism, len(targets), func(i int) {
		_ = b.ep.Send(targets[i], proto.ClientService, push)
	})
}

// sendParallelism bounds concurrent recipient sends in group fan-outs.
// Sends are latency-bound (wire time, not CPU), so the floor is above
// one core — distinct from core's CPU-bound fanOutParallelism.
var sendParallelism = max(4, runtime.GOMAXPROCS(0))

func (b *Broker) pushPresence(id keys.PeerID, username, group, status string) {
	pres := &advert.Presence{PeerID: id, Name: username, Group: group, Status: status, Seen: b.Now()}
	doc, err := pres.Document()
	if err != nil {
		return
	}
	// One document, built once: indexed as it is and pushed as it is.
	b.ctl.Cache().PutParsed(doc, pres)
	b.propagateLocal(doc, group, id)
}

func (b *Broker) handleLookupAdv(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	if !b.loggedIn(from) {
		return proto.Fail(proto.ErrNotLoggedIn)
	}
	advType, _ := msg.GetString(proto.ElemAdvType)
	advID, _ := msg.GetString(proto.ElemAdvID)
	rec, err := b.ctl.Cache().Lookup(advType, advID)
	if err != nil {
		return proto.Fail(proto.ErrNotFound)
	}
	if group := advGroup(rec.Adv); group != "" && !b.memberOf(from, group) {
		return proto.Fail(proto.ErrNoGroup)
	}
	return proto.OK().Add(proto.ElemAdv, rec.Doc.Canonical())
}

func (b *Broker) handleLookupPipe(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	if !b.loggedIn(from) {
		return proto.Fail(proto.ErrNotLoggedIn)
	}
	peer, _ := msg.GetString(proto.ElemPeer)
	group, _ := msg.GetString(proto.ElemGroup)
	if !b.memberOf(from, group) {
		return proto.Fail(proto.ErrNoGroup)
	}
	rec, err := b.ctl.Cache().Lookup(advert.TypePipe, advert.GroupPipeID(keys.PeerID(peer), group))
	if err != nil {
		return proto.Fail(proto.ErrNotFound)
	}
	// Without the signed-advertisement policy anyone may publish under
	// any ID: a record that names another peer or group is not this pipe.
	if p := rec.Adv.(*advert.Pipe); string(p.PeerID) != peer || p.Group != group {
		return proto.Fail(proto.ErrNotFound)
	}
	return proto.OK().Add(proto.ElemAdv, rec.Doc.Canonical())
}

func (b *Broker) handleListPeers(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	if !b.loggedIn(from) {
		return proto.Fail(proto.ErrNotLoggedIn)
	}
	group, _ := msg.GetString(proto.ElemGroup)
	if !b.memberOf(from, group) && !b.KnownMember(from, group) {
		return proto.Fail(proto.ErrNoGroup)
	}
	var lines []string
	if all, _ := msg.GetString(proto.ElemAll); all == "1" {
		// The store-and-forward roster: every known member, with real
		// presence, so senders can address offline peers through the
		// relay.
		for _, p := range b.KnownPeers(group) {
			status := advert.StatusOffline
			if p.Online {
				status = advert.StatusOnline
			}
			lines = append(lines, fmt.Sprintf("%s|%s|%s", p.ID, p.Username, status))
		}
	} else {
		for _, p := range b.OnlinePeers(group) {
			lines = append(lines, fmt.Sprintf("%s|%s|%s", p.ID, p.Username, advert.StatusOnline))
		}
	}
	return proto.OK().AddString(proto.ElemPeers, strings.Join(lines, "\n"))
}

// --- group ops ---

func (b *Broker) handleGroupCreate(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	if !b.loggedIn(from) {
		return proto.Fail(proto.ErrNotLoggedIn)
	}
	name, _ := msg.GetString(proto.ElemGroup)
	desc, _ := msg.GetString(proto.ElemDesc)
	if name == "" {
		return proto.Fail(proto.ErrBadRequest)
	}
	id, err := advert.NewID("group")
	if err != nil {
		return proto.Fail(proto.ErrBadRequest)
	}
	if _, err := b.groups.Create(id, name, desc, from); err != nil {
		return proto.Fail(proto.ErrGroupExists)
	}
	ga := &advert.Group{GroupID: id, Name: name, Desc: desc, Creator: from}
	if doc, err := ga.Document(); err == nil {
		b.ctl.Cache().PutParsed(doc, ga)
	}
	b.ctl.Emit(events.GroupUpdated, from, name, map[string]string{"action": "create"}, nil)
	return proto.OK()
}

func (b *Broker) handleGroupJoin(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	if !b.loggedIn(from) {
		return proto.Fail(proto.ErrNotLoggedIn)
	}
	name, _ := msg.GetString(proto.ElemGroup)
	info, _ := b.Peer(from)
	if err := b.groups.Join(name, from, info.Username); err != nil {
		return proto.Fail(proto.ErrNoGroup)
	}
	b.mu.Lock()
	if p, ok := b.peers[from]; ok && !slices.Contains(p.Groups, name) {
		p.Groups = append(p.Groups, name)
	}
	b.mu.Unlock()
	b.pushPresence(from, info.Username, name, advert.StatusOnline)
	b.ctl.Emit(events.GroupUpdated, from, name, map[string]string{"action": "join"}, nil)
	return proto.OK()
}

func (b *Broker) handleGroupLeave(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	if !b.loggedIn(from) {
		return proto.Fail(proto.ErrNotLoggedIn)
	}
	name, _ := msg.GetString(proto.ElemGroup)
	info, _ := b.Peer(from)
	if err := b.groups.Leave(name, from); err != nil {
		return proto.Fail(proto.ErrNoGroup)
	}
	b.mu.Lock()
	if p, ok := b.peers[from]; ok {
		p.Groups = slices.DeleteFunc(p.Groups, func(g string) bool { return g == name })
	}
	b.mu.Unlock()
	b.pushPresence(from, info.Username, name, advert.StatusOffline)
	b.ctl.Emit(events.GroupUpdated, from, name, map[string]string{"action": "leave"}, nil)
	return proto.OK()
}

func (b *Broker) handleGroupList(from keys.PeerID, _ *endpoint.Message) *endpoint.Message {
	if !b.loggedIn(from) {
		return proto.Fail(proto.ErrNotLoggedIn)
	}
	return proto.OK().AddString(proto.ElemGroups, strings.Join(b.groups.List(), ","))
}

// --- file index ops ---

func (b *Broker) handleFileSearch(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	if !b.loggedIn(from) {
		return proto.Fail(proto.ErrNotLoggedIn)
	}
	keyword, _ := msg.GetString(proto.ElemKeyword)
	group, _ := msg.GetString(proto.ElemGroup)
	if group != "" && !b.memberOf(from, group) {
		return proto.Fail(proto.ErrNoGroup)
	}
	resp := proto.OK()
	found := 0
	for _, rec := range b.ctl.Cache().Find(advert.TypeFileList, nil) {
		fl := rec.Adv.(*advert.FileList)
		if group != "" && fl.Group != group {
			continue
		}
		// Network-wide searches only surface files from the requester's
		// own groups.
		if group == "" && !b.memberOf(from, fl.Group) {
			continue
		}
		for _, f := range fl.Files {
			if keyword == "" || strings.Contains(f.Name, keyword) {
				resp.Add(proto.ElemAdv, rec.Doc.Canonical())
				found++
				break
			}
		}
		if found >= 64 {
			break
		}
	}
	return resp
}

// Close detaches the broker from the network.
func (b *Broker) Close() {
	b.ctl.Close()
	b.ep.Close()
}

// NodeID returns the broker's simnet attachment point.
func (b *Broker) NodeID() simnet.NodeID { return endpoint.NodeID(b.cfg.PeerID) }
