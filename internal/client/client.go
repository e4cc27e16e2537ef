// Package client implements the Client Module: the primitive API every
// JXTA-Overlay application is built on. Applications invoke primitives
// (connect, login, sendMsgPeer, group and file operations) and react to
// events thrown by functions executed when messages arrive from other
// peers or the broker.
//
// This module reproduces the original, insecure primitives: login ships
// the username and password in the clear, message sources are taken on
// faith, and advertisements are accepted unverified. The security
// extension in internal/core layers the secure primitives on top of the
// same machinery.
package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/control"
	"jxtaoverlay/internal/discovery"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/telemetry"
	"jxtaoverlay/internal/trace"
	"jxtaoverlay/internal/xmldoc"
)

// Errors returned by primitives.
var (
	ErrNotConnected = errors.New("client: not connected to a broker")
	ErrNotLoggedIn  = errors.New("client: not logged in")
	ErrLoginFailed  = errors.New("client: login failed")
	ErrNoPipe       = errors.New("client: destination pipe advertisement not found")
	ErrBrokerOp     = errors.New("client: broker operation failed")
	// ErrRelayQuota wraps ErrBrokerOp for the relay's quota refusal: the
	// relay is up, but this sender (or its group) must let its queued
	// backlog drain before uploading more rounds.
	ErrRelayQuota = fmt.Errorf("%w: relay sender/group quota exceeded", ErrBrokerOp)
	// ErrRateLimited wraps ErrBrokerOp for admission-control refusals:
	// this credential exhausted its operation budget at the broker and
	// must back off before retrying. Other credentials are unaffected.
	ErrRateLimited = fmt.Errorf("%w: rate limited by broker admission control", ErrBrokerOp)
)

// OpError is a broker refusal carrying its wire error token. It wraps
// ErrBrokerOp (errors.Is keeps working) while letting resilience
// layers classify the refusal — auth tokens are terminal, liveness
// tokens trigger a session resume — without string matching.
type OpError struct {
	// Token is the stable wire error token (proto.Err*).
	Token string
	// RetryAfter is the broker's backoff hint, when the refusal
	// carried one (0 = none).
	RetryAfter time.Duration
}

// Error formats exactly like the pre-typed "%w: %s" wrapping did.
func (e *OpError) Error() string { return ErrBrokerOp.Error() + ": " + e.Token }

// Unwrap links the refusal to ErrBrokerOp.
func (e *OpError) Unwrap() error { return ErrBrokerOp }

// PeerSummary is one row of a getOnlinePeers result.
type PeerSummary struct {
	ID       keys.PeerID
	Username string
	Status   string
}

// EnvelopeHandler is the security extension's receiver of a message that
// carries a secure wire (proto.ElemEnvelope). from is whoever the routing
// claims delivered it.
type EnvelopeHandler func(group string, from keys.PeerID, msg *endpoint.Message)

// Client is one client peer.
type Client struct {
	ep  *endpoint.Service
	ctl *control.Module
	mem membership.Service

	mu        sync.RWMutex
	broker    keys.PeerID
	identity  *membership.Identity
	username  string
	groups    []string
	loggedIn  bool
	advSigner AdvSigner
	// The security extension's two receivers: one for what arrives on a
	// group pipe, one for a slice the relay pushes.
	onPipeWire, onSliceWire EnvelopeHandler

	timeout time.Duration
	started time.Time

	// Observability (see observe.go): nil/unset means disabled.
	tracer   atomic.Pointer[trace.Recorder]
	delivery atomic.Pointer[telemetry.Histogram]
	reg      *telemetry.Registry // what BindTelemetry bound; guarded by mu
	unbind   func()              // detaches the collectors on reg; guarded by mu
}

// New attaches a client peer to the network. The membership service
// establishes the peer identity for the alias (a legacy ID for None, a
// CBID for PSE).
func New(net endpoint.Transport, mem membership.Service, alias string) (*Client, error) {
	id, err := mem.Join(alias)
	if err != nil {
		return nil, err
	}
	ep, err := endpoint.NewService(net, id.PeerID)
	if err != nil {
		return nil, err
	}
	c := &Client{
		ep:       ep,
		mem:      mem,
		identity: id,
		username: alias,
		timeout:  10 * time.Second,
		started:  ep.Now(),
	}
	c.ctl = control.New(ep, discovery.NewCache(ep.Now), events.NewBus(), c.onPipeDelivery)
	ep.RegisterHandler(proto.ClientService, c.onBrokerPush)
	return c, nil
}

// SetTimeout adjusts the per-primitive timeout used when the caller's
// context has no deadline.
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// Accessors.

// PeerID returns the local peer identifier.
func (c *Client) PeerID() keys.PeerID { return c.identity.PeerID }

// Username returns the end-user alias.
func (c *Client) Username() string { return c.username }

// Identity returns the membership identity.
func (c *Client) Identity() *membership.Identity { return c.identity }

// Membership returns the membership service the client was built with.
func (c *Client) Membership() membership.Service { return c.mem }

// Bus returns the event bus applications subscribe to.
func (c *Client) Bus() *events.Bus { return c.ctl.Bus() }

// Cache returns the local advertisement cache.
func (c *Client) Cache() *discovery.Cache { return c.ctl.Cache() }

// Endpoint returns the peer's endpoint service.
func (c *Client) Endpoint() *endpoint.Service { return c.ep }

// Now is the time at this peer (its endpoint's clock): what it signs,
// checks credentials and freshness against, and expires its tables by.
func (c *Client) Now() time.Time { return c.ep.Now() }

// Control returns the control module (used by the security extension).
func (c *Client) Control() *control.Module { return c.ctl }

// Broker returns the connected broker's peer ID ("" before Connect).
func (c *Client) Broker() keys.PeerID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.broker
}

// Groups returns the groups joined in this session.
func (c *Client) Groups() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.groups...)
}

// LoggedIn reports whether a login succeeded in this session.
func (c *Client) LoggedIn() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.loggedIn
}

// Uptime reports how long the peer has been up (statistics primitives).
func (c *Client) Uptime() time.Duration { return c.Now().Sub(c.started) }

// SetEnvelopeHandlers installs the security extension's receivers of
// secure wires: pipe for a group pipe's deliveries, slice for the relay's
// pushes. Each entry accepts what its sender produces; until they are
// set, a secure wire raises a SecurityAlert.
func (c *Client) SetEnvelopeHandlers(pipe, slice EnvelopeHandler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onPipeWire, c.onSliceWire = pipe, slice
}

// AdvSigner mutates an advertisement document before publication; the
// security extension installs an XMLdsig signer here so every published
// advertisement (pipes, presence, file lists, statistics) goes out
// signed.
type AdvSigner func(doc *xmldoc.Element) error

// SetAdvSigner installs the advertisement signing hook.
func (c *Client) SetAdvSigner(s AdvSigner) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advSigner = s
}

func (c *Client) signAdv(doc *xmldoc.Element) error {
	c.mu.RLock()
	s := c.advSigner
	c.mu.RUnlock()
	if s == nil {
		return nil
	}
	return s(doc)
}

func (c *Client) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.timeout)
}

// Call performs one broker operation and unwraps the ok/err envelope. It
// is exported for the security extension, which adds its own operations.
func (c *Client) Call(ctx context.Context, msg *endpoint.Message) (*endpoint.Message, error) {
	br := c.Broker()
	if br == "" {
		return nil, ErrNotConnected
	}
	tid := c.traceMsg(msg)
	var sp trace.Span
	if tid != 0 {
		sp = trace.Begin(tid, trace.StageSend)
		if op, ok := msg.GetString(proto.ElemOp); ok {
			sp.SetAttr("op", op)
		}
	}
	resp, err := c.call(ctx, br, msg)
	if tid != 0 {
		c.tracer.Load().End(sp, callOutcome(err))
	}
	return resp, err
}

func (c *Client) call(ctx context.Context, br keys.PeerID, msg *endpoint.Message) (*endpoint.Message, error) {
	ctx, cancel := c.withTimeout(ctx)
	defer cancel()
	resp, err := c.ep.Request(ctx, br, proto.BrokerService, msg)
	if err != nil {
		return nil, err
	}
	if ok, errToken := proto.IsOK(resp); !ok {
		switch errToken {
		case proto.ErrRelayQuota:
			return resp, ErrRelayQuota
		case proto.ErrRateLimited:
			return resp, rateLimitedError(resp)
		}
		return resp, &OpError{Token: errToken}
	}
	return resp, nil
}

// rateLimitedError preserves the ErrRateLimited sentinel while
// attaching the broker's retry-after hint when the refusal carried
// one, so backoff layers can floor their delay on it.
func rateLimitedError(resp *endpoint.Message) error {
	if ms, ok := resp.GetString(proto.ElemRetryAfter); ok {
		if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v > 0 {
			return &RateLimitedError{RetryAfter: time.Duration(v) * time.Millisecond}
		}
	}
	return ErrRateLimited
}

// RateLimitedError is an admission refusal with a broker backoff hint.
// It wraps ErrRateLimited (and transitively ErrBrokerOp).
type RateLimitedError struct {
	RetryAfter time.Duration
}

// Error matches the sentinel's message.
func (e *RateLimitedError) Error() string { return ErrRateLimited.Error() }

// Unwrap links the refusal to the ErrRateLimited sentinel.
func (e *RateLimitedError) Unwrap() error { return ErrRateLimited }

// --- discovery primitives ---

// Connect locates the broker and opens the connection (the original
// connect primitive: no legitimacy check whatsoever).
func (c *Client) Connect(ctx context.Context, broker keys.PeerID) error {
	c.mu.Lock()
	c.broker = broker
	c.mu.Unlock()
	c.ep.SetRelay(broker)
	msg := endpoint.NewMessage().AddString(proto.ElemOp, proto.OpConnect)
	resp, err := c.Call(ctx, msg)
	if err != nil {
		c.mu.Lock()
		c.broker = ""
		c.mu.Unlock()
		return err
	}
	name, _ := resp.GetString(proto.ElemBroker)
	c.ctl.Emit(events.Connected, broker, "", map[string]string{"broker": name}, nil)
	return nil
}

// Login authenticates the end user with the original primitive: the
// username and password travel to the broker unprotected.
func (c *Client) Login(ctx context.Context, password string) error {
	msg := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpLogin).
		AddString(proto.ElemUser, c.username).
		AddString(proto.ElemPass, password)
	resp, err := c.Call(ctx, msg)
	if err != nil {
		c.ctl.Emit(events.LoginFailed, c.Broker(), "", nil, nil)
		return fmt.Errorf("%w: %v", ErrLoginFailed, err)
	}
	groupsCSV, _ := resp.GetString(proto.ElemGroups)
	return c.finishLogin(ctx, splitCSV(groupsCSV))
}

// finishLogin installs the session state shared by the plain and secure
// login paths: group membership, per-group input pipes, and pipe
// advertisement publication.
func (c *Client) finishLogin(ctx context.Context, groups []string) error {
	c.mu.Lock()
	c.loggedIn = true
	c.groups = groups
	c.mu.Unlock()
	for _, g := range groups {
		if err := c.enterGroup(ctx, g); err != nil {
			return err
		}
	}
	c.ctl.Emit(events.LoginOK, c.Broker(), "", map[string]string{
		"user":   c.username,
		"groups": strings.Join(groups, ","),
	}, nil)
	return nil
}

// FinishLogin is the hook the security extension calls after a
// successful secureLogin to reuse the session bring-up.
func (c *Client) FinishLogin(ctx context.Context, groups []string) error {
	return c.finishLogin(ctx, groups)
}

// enterGroup binds the group's input pipe and announces it.
func (c *Client) enterGroup(ctx context.Context, group string) error {
	adv, err := c.ctl.BindGroupPipe(group)
	if err != nil {
		return err
	}
	return c.PublishAdv(ctx, adv)
}

// Logout closes the session. It returns once the group pipes are
// unbound and their pumps have exited: nothing of the session is being
// handled after it.
func (c *Client) Logout(ctx context.Context) error {
	msg := endpoint.NewMessage().AddString(proto.ElemOp, proto.OpLogout)
	_, err := c.Call(ctx, msg)
	c.mu.Lock()
	c.loggedIn = false
	groups := c.groups
	c.groups = nil
	c.mu.Unlock()
	for _, g := range groups {
		c.ctl.UnbindGroupPipe(g)
	}
	c.ctl.Emit(events.Disconnected, c.Broker(), "", nil, nil)
	return err
}

// GetOnlinePeers returns the online peers of a group as seen by the
// broker (empty group = whole network).
func (c *Client) GetOnlinePeers(ctx context.Context, group string) ([]PeerSummary, error) {
	msg := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpListPeers).
		AddString(proto.ElemGroup, group)
	resp, err := c.Call(ctx, msg)
	if err != nil {
		return nil, err
	}
	return parsePeerList(resp), nil
}

// GetGroupMembers returns every member the broker knows for a group —
// online AND offline — with real presence in Status. This is the
// store-and-forward roster: recipients a relayed round may address even
// while they are logged out.
func (c *Client) GetGroupMembers(ctx context.Context, group string) ([]PeerSummary, error) {
	msg := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpListPeers).
		AddString(proto.ElemGroup, group).
		AddString(proto.ElemAll, "1")
	resp, err := c.Call(ctx, msg)
	if err != nil {
		return nil, err
	}
	return parsePeerList(resp), nil
}

func parsePeerList(resp *endpoint.Message) []PeerSummary {
	raw, _ := resp.GetString(proto.ElemPeers)
	var out []PeerSummary
	for _, line := range strings.Split(raw, "\n") {
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, "|", 3)
		if len(parts) != 3 {
			continue
		}
		out = append(out, PeerSummary{ID: keys.PeerID(parts[0]), Username: parts[1], Status: parts[2]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// --- advertisement primitives ---

// PublishAdv publishes an advertisement to the broker, which indexes it
// and propagates it to the relevant group. When an advertisement signer
// is installed (security extension) the document is signed first.
func (c *Client) PublishAdv(ctx context.Context, adv advert.Advertisement) error {
	doc, err := adv.Document()
	if err != nil {
		return err
	}
	if err := c.signAdv(doc); err != nil {
		return err
	}
	return c.PublishAdvDoc(ctx, doc)
}

// PublishAdvDoc publishes a raw advertisement document (used by the
// security extension to publish signed documents verbatim).
func (c *Client) PublishAdvDoc(ctx context.Context, doc *xmldoc.Element) error {
	if _, err := c.ctl.Cache().Put(doc); err != nil {
		return err
	}
	msg := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpPublishAdv).
		Add(proto.ElemAdv, doc.Canonical())
	_, err := c.Call(ctx, msg)
	return err
}

// LookupAdv finds an advertisement by type and id, first locally, then
// at the broker. The raw document is returned alongside the parsed form
// so callers can verify signatures.
func (c *Client) LookupAdv(ctx context.Context, advType, advID string) (advert.Advertisement, *xmldoc.Element, error) {
	if rec, err := c.ctl.Cache().Lookup(advType, advID); err == nil {
		return rec.Adv, rec.Doc, nil
	}
	msg := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpLookupAdv).
		AddString(proto.ElemAdvType, advType).
		AddString(proto.ElemAdvID, advID)
	resp, err := c.Call(ctx, msg)
	if err != nil {
		return nil, nil, err
	}
	return c.cacheAdvResponse(resp)
}

// LookupPipe finds the unicast pipe advertisement of a peer in a group:
// the one record cached under the pair's derived ID, else the broker's.
func (c *Client) LookupPipe(ctx context.Context, peer keys.PeerID, group string) (*advert.Pipe, *xmldoc.Element, error) {
	if rec, err := c.ctl.Cache().Lookup(advert.TypePipe, advert.GroupPipeID(peer, group)); err == nil {
		if p := rec.Adv.(*advert.Pipe); p.PeerID == peer && p.Group == group {
			return p, rec.Doc, nil
		}
	}
	msg := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpLookupPipe).
		AddString(proto.ElemPeer, string(peer)).
		AddString(proto.ElemGroup, group)
	resp, err := c.Call(ctx, msg)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrNoPipe, err)
	}
	adv, doc, err := c.cacheAdvResponse(resp)
	if err != nil {
		return nil, nil, err
	}
	pipeAdv, ok := adv.(*advert.Pipe)
	if !ok {
		return nil, nil, ErrNoPipe
	}
	return pipeAdv, doc, nil
}

func (c *Client) cacheAdvResponse(resp *endpoint.Message) (advert.Advertisement, *xmldoc.Element, error) {
	raw, ok := resp.Get(proto.ElemAdv)
	if !ok {
		return nil, nil, ErrNoPipe
	}
	return c.cacheAdv(raw)
}

// cacheAdv parses and caches an advertisement received in a frame. The
// parsed tree and advertisement are views of what they were parsed from
// and stay in the cache for the advertisement's lifetime, so they are
// parsed from a copy: a view would keep the whole frame alive as long.
func (c *Client) cacheAdv(raw []byte) (advert.Advertisement, *xmldoc.Element, error) {
	doc, err := xmldoc.ParseCanonical(bytes.Clone(raw))
	if err != nil {
		return nil, nil, err
	}
	adv, err := c.ctl.Cache().Put(doc)
	if err != nil {
		return nil, nil, err
	}
	return adv, doc, nil
}

// --- messenger primitives ---

// SendMsgPeer sends a simple text message to another client peer over
// its group input pipe, without broker intervention (original primitive:
// no privacy, integrity or source authentication).
func (c *Client) SendMsgPeer(ctx context.Context, peer keys.PeerID, group, text string) error {
	pipeAdv, _, err := c.LookupPipe(ctx, peer, group)
	if err != nil {
		return err
	}
	return c.ctl.SendOnPipe(pipeAdv, nil,
		endpoint.Element{Name: proto.ElemBody, Data: []byte(text)},
		endpoint.Element{Name: proto.ElemGroup, Data: []byte(group)})
}

// SendMsgPeerGroup sends a simple message to every online member of a
// group by iteratively calling SendMsgPeer, exactly as JXTA-Overlay
// resolves the group primitive. It returns the number of peers reached
// and the first error encountered.
func (c *Client) SendMsgPeerGroup(ctx context.Context, group, text string) (int, error) {
	members, err := c.GetOnlinePeers(ctx, group)
	if err != nil {
		return 0, err
	}
	sent := 0
	var firstErr error
	for _, m := range members {
		if m.ID == c.PeerID() {
			continue
		}
		if err := c.SendMsgPeer(ctx, m.ID, group, text); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sent++
	}
	return sent, firstErr
}

// --- group primitives ---

// CreateGroup registers a new group at the broker.
func (c *Client) CreateGroup(ctx context.Context, name, desc string) error {
	msg := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpGroupCreate).
		AddString(proto.ElemGroup, name).
		AddString(proto.ElemDesc, desc)
	_, err := c.Call(ctx, msg)
	return err
}

// JoinGroup joins a group and binds its messaging pipe.
func (c *Client) JoinGroup(ctx context.Context, name string) error {
	msg := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpGroupJoin).
		AddString(proto.ElemGroup, name)
	if _, err := c.Call(ctx, msg); err != nil {
		return err
	}
	c.mu.Lock()
	if !slices.Contains(c.groups, name) {
		c.groups = append(c.groups, name)
	}
	c.mu.Unlock()
	return c.enterGroup(ctx, name)
}

// LeaveGroup leaves a group and unbinds its pipe.
func (c *Client) LeaveGroup(ctx context.Context, name string) error {
	msg := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpGroupLeave).
		AddString(proto.ElemGroup, name)
	if _, err := c.Call(ctx, msg); err != nil {
		return err
	}
	c.mu.Lock()
	c.groups = slices.DeleteFunc(c.groups, func(g string) bool { return g == name })
	c.mu.Unlock()
	c.ctl.UnbindGroupPipe(name)
	return nil
}

// ListGroups returns the group names known to the broker.
func (c *Client) ListGroups(ctx context.Context) ([]string, error) {
	msg := endpoint.NewMessage().AddString(proto.ElemOp, proto.OpGroupList)
	resp, err := c.Call(ctx, msg)
	if err != nil {
		return nil, err
	}
	csv, _ := resp.GetString(proto.ElemGroups)
	return splitCSV(csv), nil
}

// --- statistics primitives ---

// PublishStats publishes this peer's counters for a group.
func (c *Client) PublishStats(ctx context.Context, group string) error {
	tx, rx, txB, rxB := c.ep.Counters()
	stats := &advert.Stats{
		PeerID:    c.PeerID(),
		Group:     group,
		MsgsSent:  tx,
		MsgsRecv:  rx,
		BytesSent: txB,
		BytesRecv: rxB,
		UptimeSec: uint64(c.Uptime() / time.Second),
	}
	return c.PublishAdv(ctx, stats)
}

// GetPeerStats retrieves another peer's last published statistics.
func (c *Client) GetPeerStats(ctx context.Context, peer keys.PeerID, group string) (*advert.Stats, error) {
	adv, _, err := c.LookupAdv(ctx, advert.TypeStats, string(peer)+"/"+group)
	if err != nil {
		return nil, err
	}
	stats, ok := adv.(*advert.Stats)
	if !ok {
		return nil, errors.New("client: unexpected advertisement type")
	}
	return stats, nil
}

// --- inbound paths ---

// onPipeDelivery converts pipe messages into events; a secure wire goes
// to the security extension.
func (c *Client) onPipeDelivery(group string, from keys.PeerID, msg *endpoint.Message) {
	if msg.Has(proto.ElemEnvelope) {
		c.mu.RLock()
		h := c.onPipeWire
		c.mu.RUnlock()
		c.openSecure(h, group, from, msg)
		return
	}
	if body, ok := msg.GetString(proto.ElemBody); ok {
		c.ctl.Emit(events.MessageReceived, from, group, map[string]string{"authenticated": "false"}, []byte(body))
	}
}

// openSecure hands a secure wire to the security extension's receiver h,
// or alerts when there is none.
func (c *Client) openSecure(h EnvelopeHandler, group string, from keys.PeerID, msg *endpoint.Message) {
	if h == nil {
		c.ctl.Emit(events.SecurityAlert, from, group, map[string]string{
			"reason": "secure envelope received but security extension not enabled",
		}, nil)
		return
	}
	h(group, from, msg)
}

// onBrokerPush handles advertisements propagated by the broker and
// relay-delivered round slices.
func (c *Client) onBrokerPush(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	op, _ := msg.GetString(proto.ElemOp)
	if op == proto.OpSliceDeliver {
		// A per-recipient round slice cut by the broker relay — either a
		// live push or a queued item drained at login. The claimed origin
		// is the submitting peer (unauthenticated here — the signed sender
		// is inside the slice, checked by the security extension). The
		// relay pushes nothing else, so its receiver opens nothing else.
		if !msg.Has(proto.ElemEnvelope) {
			return nil
		}
		group, _ := msg.GetString(proto.ElemGroup)
		origin, _ := msg.GetString(proto.ElemPeer)
		c.mu.RLock()
		h := c.onSliceWire
		c.mu.RUnlock()
		c.openSecure(h, group, keys.PeerID(origin), msg)
		return nil
	}
	if op != proto.OpAdvPush {
		return nil
	}
	raw, ok := msg.Get(proto.ElemAdv)
	if !ok {
		return nil
	}
	adv, _, err := c.cacheAdv(raw)
	if err != nil {
		return nil
	}
	switch a := adv.(type) {
	case *advert.Presence:
		c.ctl.Emit(events.PresenceUpdate, a.PeerID, a.Group, map[string]string{
			"user": a.Name, "status": a.Status,
		}, nil)
	case *advert.FileList:
		c.ctl.Emit(events.FileIndexUpdated, a.PeerID, a.Group, nil, nil)
	case *advert.Group:
		c.ctl.Emit(events.GroupUpdated, a.Creator, a.Name, map[string]string{"action": "advertised"}, nil)
	}
	return nil
}

// Close detaches the peer from the network and from telemetry, and
// returns once its pipes' pumps have exited. The endpoint closes first,
// so that a pump waiting on a request is answered at once.
func (c *Client) Close() {
	c.ep.Close()
	c.ctl.Close()
	c.mu.Lock()
	unbind := c.unbind
	c.unbind, c.reg = nil, nil
	c.mu.Unlock()
	if unbind != nil {
		unbind()
	}
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}
