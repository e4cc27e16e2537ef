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
//
// A broker stands alone: every session, advertisement and relayed slice
// it serves is its own, and no op takes another broker's word for a
// peer's presence. A peer is resident here or unknown.
package broker

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jxtaoverlay/internal/admission"
	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/control"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/discovery"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/trace"
	"jxtaoverlay/internal/xmldoc"
)

// Authenticator abstracts the central database connection: the local
// Store in small deployments, the authenticated remote client in
// distributed ones. A login calls it without a deadline
// (context.Background()): an Authenticator that waits on another party
// bounds that wait itself, as userdb.Client does.
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

// PeerInfo is the broker's view of a connected client peer.
type PeerInfo struct {
	ID          keys.PeerID
	Username    string
	Groups      []string
	Online      bool
	ConnectedAt time.Time
}

// Lease is the presence lease a secure login grants its session: its
// identifier, its time to live (from the session's start, then from each
// heartbeat that renews it), and the credential the login issued, whose
// key signs the session's heartbeats.
type Lease struct {
	ID   string
	TTL  time.Duration
	Cred *cred.Credential
}

// session is the broker's one record of a peer's standing: the PeerInfo
// that Peer copies out and, for a login granted one, the presence lease.
// It is the only table of live group membership: a peer is a live member
// of g while its record is online and names g. Groups is replaced, never
// written in place, so a copy of the record keeps a stable list. It is
// the broker's presence record too: a presence lookup no published
// advertisement answers is answered from it (presenceOf).
type session struct {
	PeerInfo
	lease    Lease     // zero when the session holds none
	seq      uint64    // highest heartbeat sequence accepted
	deadline time.Time // the lease lapses after it
	ended    time.Time // when end took the session offline
}

// liveIn reports whether the session is a live member of group.
func (s *session) liveIn(group string) bool {
	return s.Online && slices.Contains(s.Groups, group)
}

// end takes the session offline at now and ends its lease. The caller
// holds b.mu; what it returns is the record the teardown outside the lock
// reads.
func (s *session) end(now time.Time) PeerInfo {
	s.Online, s.lease, s.ended = false, Lease{}, now
	return s.PeerInfo
}

// presence renders the session's presence in group, which its record
// names: online while it is live there, and seen when it began or, once
// it has ended, when it ended.
func (s *session) presence(group string) *advert.Presence {
	p := &advert.Presence{PeerID: s.ID, Name: s.Username, Group: group, Status: advert.StatusOffline, Seen: s.ended}
	if s.liveIn(group) {
		p.Status, p.Seen = advert.StatusOnline, s.ConnectedAt
	}
	return p
}

// OpHandler processes one broker operation.
type OpHandler func(from keys.PeerID, msg *endpoint.Message) *endpoint.Message

// opEntry is one entry of the broker's ops table. A member op is refused
// not-logged-in to a caller without an online session, before its
// handler runs.
type opEntry struct {
	name   string
	h      OpHandler
	member bool
}

// AdvVerifier validates a published advertisement document before the
// broker accepts and propagates it, and returns the parsed
// advertisement so the broker never parses a document twice (the
// verifier already had to parse it for the ownership check): a verifier
// that accepts a document returns its parse, never nil. The
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
	cfg Config
	ep  *endpoint.Service
	ctl *control.Module

	mu    sync.RWMutex
	peers map[keys.PeerID]*session
	// groups names every group the broker knows: the ones created and the
	// database groups of every login. Who belongs is on the records.
	groups      map[string]struct{}
	ops         map[string]opEntry
	advVerifier AdvVerifier
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
	opsDispatched  atomic.Uint64
	opsFailed      atomic.Uint64
	opsRateLimited atomic.Uint64
	advsPublished  atomic.Uint64
	idemDeduped    atomic.Uint64
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
		OpsDispatched:  b.opsDispatched.Load(),
		OpsFailed:      b.opsFailed.Load(),
		OpsRateLimited: b.opsRateLimited.Load(),
		AdvsPublished:  b.advsPublished.Load(),
		IdemDeduped:    b.idemDeduped.Load(),
		PeersOnline:    online,
		PeersKnown:     known,
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
		peers:  make(map[keys.PeerID]*session),
		groups: make(map[string]struct{}),
		ops:    make(map[string]opEntry),
		idem:   newIdemCache(),
	}
	b.registerDefaultOps()
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

// Bus returns the broker's event bus.
func (b *Broker) Bus() *events.Bus { return b.ctl.Bus() }

// DB returns the configured database connection.
func (b *Broker) DB() Authenticator { return b.cfg.DB }

// RegisterOp installs (or overrides) an operation handler; the security
// extension uses it to add secureConnection and secureLogin. The op is
// open to any caller: a handler that serves logged-in peers only checks
// that itself.
func (b *Broker) RegisterOp(name string, h OpHandler) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ops[name] = opEntry{name: name, h: h}
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
// credential fingerprint. No caller is exempt.
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

// dispatch runs one op for from. One read of the tables finds the op, the
// limiter and whether from has an online session. The op is looked up by
// the element's bytes, and named by its entry's string.
func (b *Broker) dispatch(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	name, _ := msg.Get(proto.ElemOp)
	b.mu.RLock()
	e, ok := b.ops[string(name)]
	adm := b.adm
	s := b.peers[from]
	online := s != nil && s.Online
	b.mu.RUnlock()
	if !ok {
		return proto.Fail(proto.ErrUnknownOp)
	}
	op := e.name
	b.opsDispatched.Add(1)
	tid := b.TraceID(msg)
	// The admission span is recorded for every traced dispatch, limiter
	// or not: "admitted in ~0" and "no limiter installed" read the same
	// in a waterfall, and the stage is always present to anchor the
	// broker side of the trace.
	sp := trace.Begin(tid, trace.StageAdmission)
	sp.SetAttr("op", op)
	if adm != nil {
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
	b.tracer.Load().End(sp, trace.OutcomeOK)
	if e.member && !online {
		b.opsFailed.Add(1)
		return proto.Fail(proto.ErrNotLoggedIn)
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
	honoured := idemK != "" && len(idemK) <= idemMaxKeyLen && online
	if honoured {
		if cached, ok := b.idem.lookup(from, idemK, b.Now()); ok {
			b.idemDeduped.Add(1)
			b.Audit(audit.Event{Kind: audit.KindIdemDedup, Peer: string(from), Op: op, Reason: "replayed-key", Trace: tid})
			return cached
		}
	}
	resp := e.h(from, msg)
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
	b.ops[proto.OpConnect] = opEntry{name: proto.OpConnect, h: b.handleConnect}
	b.ops[proto.OpLogin] = opEntry{name: proto.OpLogin, h: b.handleLogin}
	b.ops[proto.OpLogout] = opEntry{name: proto.OpLogout, h: b.handleLogout}
	for name, h := range map[string]OpHandler{
		proto.OpPublishAdv:  b.handlePublishAdv,
		proto.OpLookupAdv:   b.handleLookupAdv,
		proto.OpLookupPipe:  b.handleLookupPipe,
		proto.OpListPeers:   b.handleListPeers,
		proto.OpGroupCreate: b.handleGroupCreate,
		proto.OpGroupJoin:   b.handleGroupJoin,
		proto.OpGroupLeave:  b.handleGroupLeave,
		proto.OpGroupList:   b.handleGroupList,
		proto.OpFileSearch:  b.handleFileSearch,
	} {
		b.ops[name] = opEntry{name: name, h: h, member: true}
	}
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
	groups, err := b.cfg.DB.Authenticate(context.Background(), user, pass)
	if err != nil {
		return proto.Fail(proto.ErrAuthFailed)
	}
	b.RegisterPeer(from, user, groups)
	return proto.OK().AddString(proto.ElemGroups, strings.Join(groups, ","))
}

func (b *Broker) handleLogout(from keys.PeerID, _ *endpoint.Message) *endpoint.Message {
	b.UnregisterPeer(from)
	return proto.BareOK()
}

// RegisterPeer records a successfully authenticated peer, online in its
// database-assigned groups: the plain login path calls it.
func (b *Broker) RegisterPeer(id keys.PeerID, username string, groups []string) {
	b.RegisterLeasedPeer(id, username, groups, Lease{})
}

// RegisterLeasedPeer is RegisterPeer for a secure login: the session it
// records holds l, when l.ID is set, until a logout, an expiry or the
// next login of the peer ends it. The session begins now, in place of the
// peer's last one: its groups are the ones the login names, and the
// members of a group the old session was live in and the new one does not
// name are told it went offline, as a logout would tell them.
func (b *Broker) RegisterLeasedPeer(id keys.PeerID, username string, groups []string, l Lease) {
	now := b.Now()
	s := &session{PeerInfo: PeerInfo{
		ID: id, Username: username,
		Groups: slices.Clone(groups),
		Online: true, ConnectedAt: now,
	}}
	if l.ID != "" {
		s.lease, s.deadline = l, now.Add(l.TTL)
	}
	b.mu.Lock()
	old := b.peers[id]
	b.peers[id] = s
	for _, g := range groups {
		b.groups[g] = struct{}{}
	}
	b.mu.Unlock()
	if old != nil && old.Online {
		for _, g := range old.Groups {
			if !slices.Contains(groups, g) {
				b.pushPresence(id, old.Username, g, advert.StatusOffline)
			}
		}
	}
	for _, g := range groups {
		b.pushPresence(id, username, g, advert.StatusOnline)
	}
	b.Audit(audit.Event{Kind: audit.KindPeerUp, Peer: string(id), Op: "presence", Reason: reasonLocal})
	b.ctl.Bus().Emit(events.Event{Type: events.PresenceUpdate, From: id, User: username, Status: advert.StatusOnline})
}

// UnregisterPeer ends a peer's online session (its logout): the session
// goes offline, out of its groups, and its lease ends with it.
func (b *Broker) UnregisterPeer(id keys.PeerID) {
	b.mu.Lock()
	s := b.peers[id]
	live := s != nil && s.Online
	var info PeerInfo
	if live {
		info = s.end(b.Now())
	}
	b.mu.Unlock()
	if live {
		b.teardown(info, reasonLocal)
	}
}

// ExpireLeases ends every session whose presence lease has lapsed by the
// broker's clock, in one pass under the lock that writes the records, and
// returns the peers it took offline. Their teardowns, audited peer-down
// "lease-expired", run after the lock is dropped; a re-login that lands
// between the two finds its record offline and replaces it whole.
func (b *Broker) ExpireLeases() []keys.PeerID {
	now := b.Now()
	var ended []PeerInfo
	b.mu.Lock()
	for _, s := range b.peers {
		if s.lease.ID != "" && now.After(s.deadline) {
			ended = append(ended, s.end(now))
		}
	}
	b.mu.Unlock()
	ids := make([]keys.PeerID, len(ended))
	for i, info := range ended {
		b.teardown(info, "lease-expired")
		ids[i] = info.ID
	}
	return ids
}

// LeaseCredential returns the credential id's session holds when its
// lease is leaseID, and nil when it holds no lease or another one.
func (b *Broker) LeaseCredential(id keys.PeerID, leaseID []byte) *cred.Credential {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if s := b.peers[id]; s != nil && s.lease.ID != "" && s.lease.ID == string(leaseID) {
		return s.lease.Cred
	}
	return nil
}

// RenewLease is a heartbeat's bookkeeping once its signature is verified:
// it renews id's lease leaseID at now with sequence number seq and
// returns the refusal token, "" when it renewed. A session without that
// lease, or past its deadline, is lease-expired. A sequence number not
// above the last one accepted — a replayed or reordered heartbeat — is
// refused without touching the deadline, so captured heartbeats cannot
// keep a dead session's presence alive. No allocation.
func (b *Broker) RenewLease(id keys.PeerID, leaseID []byte, seq uint64, now time.Time) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.peers[id]
	if s == nil || s.lease.ID == "" || s.lease.ID != string(leaseID) || now.After(s.deadline) {
		return proto.ErrLeaseExpired
	}
	if seq <= s.seq {
		return proto.ErrBadRequest
	}
	s.seq = seq
	s.deadline = now.Add(s.lease.TTL)
	return ""
}

// Leases counts the sessions holding a presence lease.
func (b *Broker) Leases() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	n := 0
	for _, s := range b.peers {
		if s.lease.ID != "" {
			n++
		}
	}
	return n
}

// teardown tells the world a session has ended, once end has taken it
// offline: its groups' other members and the audit journal, which records
// reason.
func (b *Broker) teardown(info PeerInfo, reason string) {
	for _, g := range info.Groups {
		b.pushPresence(info.ID, info.Username, g, advert.StatusOffline)
	}
	b.Audit(audit.Event{Kind: audit.KindPeerDown, Peer: string(info.ID), Op: "presence", Reason: reason})
	b.ctl.Bus().Emit(events.Event{Type: events.PresenceUpdate, From: info.ID, User: info.Username, Status: advert.StatusOffline})
}

// reasonLocal is the reason a presence record of a login or a logout
// carries: the session was this broker's own.
const reasonLocal = "local"

// Peer returns the broker's record for a peer.
func (b *Broker) Peer(id keys.PeerID) (PeerInfo, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	s, ok := b.peers[id]
	if !ok {
		return PeerInfo{}, false
	}
	return s.PeerInfo, true
}

// rosterRows returns the session records group's roster lists, sorted
// by peer ID. With all, that is every peer the broker has a record for,
// online or offline, whose record names the group (KnownMember): the
// store-and-forward roster, the set of peers a relayed round may
// address. Without, it is the group's live members. The empty group is
// the whole network. The rows are the table's own records: the caller
// holds b.mu while it reads them.
func (b *Broker) rosterRows(group string, all bool) []*PeerInfo {
	rows := make([]*PeerInfo, 0, len(b.peers))
	for _, s := range b.peers {
		if (all || s.Online) && (group == "" || slices.Contains(s.Groups, group)) {
			rows = append(rows, &s.PeerInfo)
		}
	}
	slices.SortFunc(rows, func(a, b *PeerInfo) int { return strings.Compare(string(a.ID), string(b.ID)) })
	return rows
}

// memberOf enforces the JXTA-Overlay interaction rule: only members of
// the same group may interact. The empty group (network-wide data) is
// open to every logged-in peer.
func (b *Broker) memberOf(id keys.PeerID, group string) bool {
	if group == "" {
		return true
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	s := b.peers[id]
	return s != nil && s.liveIn(group)
}

// --- advertisement ops ---

func (b *Broker) handlePublishAdv(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	raw, ok := msg.Get(proto.ElemAdv)
	if !ok {
		return proto.Fail(proto.ErrBadRequest)
	}
	tid := b.TraceID(msg)
	tr := b.tracer.Load()
	// Published advertisements must be canonical wire bytes — peers
	// serialize with Canonical() — so the hardened fast-path parser is
	// both the cheap and the strict choice at this, the broker's most
	// exposed ingest surface. The parsed tree and advertisement are
	// views of what they were parsed from and are what the cache keeps for
	// the advertisement's lifetime (discovery's ownership rule), so they
	// are parsed from a copy made for the cache: a view of the request
	// frame would keep the whole frame (measured: +5.6 % live heap on
	// join-churn) for as long.
	sp := trace.Begin(tid, trace.StageParse)
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
	sp = trace.Begin(tid, trace.StageVerify)
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
	sp = trace.Begin(tid, trace.StagePublish)
	var push *endpoint.Message
	if group != "" {
		push = b.advPushFor(doc, parsed)
	}
	if err := b.ctl.Cache().PutParsed(doc, parsed); err != nil {
		tr.End(sp, trace.OutcomeError)
		return proto.Fail(proto.ErrBadRequest)
	}
	b.advsPublished.Add(1)
	if push != nil {
		b.pushLocal(push, group, from)
	}
	tr.End(sp, trace.OutcomeOK)
	return proto.BareOK()
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
		return parsed, ""
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

// advPush is the push of an advertisement document. Its canonical bytes
// are rendered once (memoized on the document) and shared by every
// recipient's frame.
func advPush(doc *xmldoc.Element) *endpoint.Message {
	return endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpAdvPush).
		Add(proto.ElemAdv, doc.Canonical())
}

// advPushFor is the push that tells a group's residents of doc, accepted
// as adv and about to take the place of the broker's record under its
// (type, id); it is called before that put. A pipe advertisement whose
// fresh record holds exactly doc's bytes — a re-join's, which its owner
// publishes unchanged — goes as a refresh: its ID and the SHA-256 of its
// bytes, which a resident holding those bytes re-puts and one holding
// others drops. Everything else is pushed whole: a presence, file-list or
// group advertisement raises an event at the resident, which a digest of
// a record it may not hold could not.
func (b *Broker) advPushFor(doc *xmldoc.Element, adv advert.Advertisement) *endpoint.Message {
	raw := doc.Canonical()
	if _, ok := adv.(*advert.Pipe); ok {
		if rec, err := b.ctl.Cache().Lookup(advert.TypePipe, adv.AdvID()); err == nil && bytes.Equal(rec.Doc.Canonical(), raw) {
			sum := doc.CanonicalSum() // memoized when the publish was verified
			return endpoint.NewMessage().
				AddString(proto.ElemOp, proto.OpAdvRefresh).
				AddString(proto.ElemAdvID, adv.AdvID()).
				Add(proto.ElemAdvSum, sum[:])
		}
	}
	return advPush(doc)
}

// pushLocal sends msg to every online member of group but except (the
// member the push is from or about), in one frame built for all of them
// (endpoint.Service.SendEach): Send hands a frame to the fabric and does
// not wait for its delivery, so a goroutine per member would buy nothing,
// and neither would a frame per member. Every member's delivery reads that
// one buffer, which holds because no handler a push reaches writes into
// its frame: a presence notice is read as views, an advertisement is
// copied by PutCanonical before it is parsed, and a refresh reads its ID
// and digest. A relayed slice, which its recipient opens in place, is
// never sent through here. This is the broker's "distribute data beyond
// boundaries" role.
func (b *Broker) pushLocal(msg *endpoint.Message, group string, except keys.PeerID) {
	var room [32]keys.PeerID
	targets := room[:0]
	b.mu.RLock()
	for id, s := range b.peers {
		if id != except && s.liveIn(group) {
			targets = append(targets, id)
		}
	}
	b.mu.RUnlock()
	if len(targets) > 0 {
		_ = b.ep.SendEach(targets, proto.ClientService, msg)
	}
}

// pushPresence tells a group's other local members of a peer's presence
// in it: a notice of four fields, views of the strings it is handed, which
// the members read without a parse and keep nothing of. The broker keeps
// no record of its own: the session is its presence record (presenceOf).
func (b *Broker) pushPresence(id keys.PeerID, username, group, status string) {
	b.pushLocal(endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpPresencePush).
		AddString(proto.ElemPeer, string(id)).
		AddString(proto.ElemGroup, group).
		AddString(proto.ElemUser, username).
		AddString(proto.ElemStatus, status), group, id)
}

// handleLookupAdv answers a lookup from the cache of published
// advertisements and, for a presence none was published for, from the
// session record it names, rendered now.
func (b *Broker) handleLookupAdv(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	advType, _ := msg.GetString(proto.ElemAdvType)
	advID, _ := msg.GetString(proto.ElemAdvID)
	var adv advert.Advertisement
	var doc *xmldoc.Element
	if rec, err := b.ctl.Cache().Lookup(advType, advID); err == nil {
		adv, doc = rec.Adv, rec.Doc
	} else if advType == advert.TypePresence {
		adv, doc = b.presenceOf(advID)
	}
	if adv == nil {
		return proto.Fail(proto.ErrNotFound)
	}
	if group := advGroup(adv); group != "" && !b.memberOf(from, group) {
		return proto.Fail(proto.ErrNoGroup)
	}
	return proto.OK().Add(proto.ElemAdv, doc.Canonical())
}

// presenceOf is the presence advertisement id names (advert.Presence's
// AdvID, peer "/" group), rendered from the peer's session record when
// that record names the group; nil when there is none.
func (b *Broker) presenceOf(id string) (advert.Advertisement, *xmldoc.Element) {
	peer, group, ok := strings.Cut(id, "/")
	if !ok {
		return nil, nil
	}
	b.mu.RLock()
	var p *advert.Presence
	if s := b.peers[keys.PeerID(peer)]; s != nil && slices.Contains(s.Groups, group) {
		p = s.presence(group)
	}
	b.mu.RUnlock()
	if p == nil {
		return nil, nil
	}
	doc, err := p.Document()
	if err != nil {
		return nil, nil
	}
	return p, doc
}

func (b *Broker) handleLookupPipe(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
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
	group, _ := msg.GetString(proto.ElemGroup)
	if !b.KnownMember(from, group) {
		return proto.Fail(proto.ErrNoGroup)
	}
	// With ElemAll, the store-and-forward roster: every known member,
	// with real presence, so senders can address offline peers through
	// the relay.
	all, _ := msg.Get(proto.ElemAll)
	return proto.OK().Add(proto.ElemPeers, b.roster(group, string(all) == "1"))
}

// roster writes the roster lines of rosterRows(group, all) into one
// buffer, sized up front, from the session table under its lock: no
// record is copied.
func (b *Broker) roster(group string, all bool) []byte {
	b.mu.RLock()
	defer b.mu.RUnlock()
	rows := b.rosterRows(group, all)
	n := 0
	for _, p := range rows {
		n += len(p.ID) + len(p.Username) + len(presence(p)) + 3 // two '|', one '\n'
	}
	out := make([]byte, 0, n)
	for _, p := range rows {
		out = proto.AppendRosterLine(out, string(p.ID), p.Username, presence(p))
	}
	return out
}

// presence is p's roster status.
func presence(p *PeerInfo) string {
	if p.Online {
		return advert.StatusOnline
	}
	return advert.StatusOffline
}

// --- group ops ---

func (b *Broker) handleGroupCreate(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	name, _ := msg.GetString(proto.ElemGroup)
	desc, _ := msg.GetString(proto.ElemDesc)
	if name == "" {
		return proto.Fail(proto.ErrBadRequest)
	}
	id, err := advert.NewID("group")
	if err != nil {
		return proto.Fail(proto.ErrBadRequest)
	}
	b.mu.Lock()
	_, exists := b.groups[name]
	b.groups[name] = struct{}{}
	b.mu.Unlock()
	if exists {
		return proto.Fail(proto.ErrGroupExists)
	}
	ga := &advert.Group{GroupID: id, Name: name, Desc: desc, Creator: from}
	if doc, err := ga.Document(); err == nil {
		b.ctl.Cache().PutParsed(doc, ga)
	}
	b.ctl.Emit(events.GroupUpdated, from, name, map[string]string{"action": "create"}, nil)
	return proto.BareOK()
}

func (b *Broker) handleGroupJoin(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	name, _ := msg.GetString(proto.ElemGroup)
	b.mu.Lock()
	_, exists := b.groups[name]
	s := b.peers[from]
	joined := exists && s != nil && s.Online
	var user string
	if joined {
		user = s.Username
		if !slices.Contains(s.Groups, name) {
			s.Groups = append(slices.Clip(s.Groups), name)
		}
	}
	b.mu.Unlock()
	if !joined {
		return proto.Fail(proto.ErrNoGroup)
	}
	b.pushPresence(from, user, name, advert.StatusOnline)
	b.ctl.Emit(events.GroupUpdated, from, name, map[string]string{"action": "join"}, nil)
	return proto.BareOK()
}

func (b *Broker) handleGroupLeave(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	name, _ := msg.GetString(proto.ElemGroup)
	b.mu.Lock()
	s := b.peers[from]
	left := s != nil && s.liveIn(name)
	var user string
	if left {
		user = s.Username
		s.Groups = slices.DeleteFunc(slices.Clone(s.Groups), func(g string) bool { return g == name })
	}
	b.mu.Unlock()
	if !left {
		return proto.Fail(proto.ErrNoGroup)
	}
	b.pushPresence(from, user, name, advert.StatusOffline)
	b.ctl.Emit(events.GroupUpdated, from, name, map[string]string{"action": "leave"}, nil)
	return proto.BareOK()
}

func (b *Broker) handleGroupList(from keys.PeerID, _ *endpoint.Message) *endpoint.Message {
	b.mu.RLock()
	names := make([]string, 0, len(b.groups))
	for g := range b.groups {
		names = append(names, g)
	}
	b.mu.RUnlock()
	slices.Sort(names)
	return proto.OK().AddString(proto.ElemGroups, strings.Join(names, ","))
}

// --- file index ops ---

func (b *Broker) handleFileSearch(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
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
