package endpoint

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/simnet"
)

// svcResponse is the internal service that resolves pending requests.
const svcResponse = "jxta:resp"

// Transport is the fabric an endpoint sends frames over and receives
// them from: exactly what a Service calls. *simnet.Network is one.
type Transport interface {
	// Attach registers id's receiver; Detach removes it.
	Attach(id simnet.NodeID, h simnet.Handler) error
	Detach(id simnet.NodeID)
	// Attached reports whether id is attached now (advisory).
	Attached(id simnet.NodeID) bool
	// Send hands frame to the fabric for delivery to to, and does not
	// wait for the delivery: a caller sending to many peers sends to one
	// after another. When it returns nil the frame is the transport's,
	// then the receiving handler's, and the sender neither reads nor
	// writes it again; when it fails the frame is still the sender's.
	// The one exception is SendEach's frame, handed to several sends and
	// read by all of their handlers: neither the transport nor a handler
	// writes it.
	Send(from, to simnet.NodeID, frame []byte) error
}

// Handler processes a message delivered to a registered service. The
// from argument is the peer ID claimed by the sender in the frame's
// routing prefix — note that without the security extension nothing
// authenticates it. A non-nil return value is sent back as the response
// when the message was a Request; it is only read, so one response may
// be handed out any number of times.
type Handler func(from keys.PeerID, msg *Message) *Message

// Errors returned by Send/Request.
var (
	ErrNoRelay = errors.New("endpoint: destination unreachable and no relay configured")
	ErrClosed  = errors.New("endpoint: service closed")
)

// NodeID maps a peer ID onto its transport attachment point.
func NodeID(id keys.PeerID) simnet.NodeID { return simnet.NodeID(id) }

// Service is one peer's endpoint: its attachment to the transport plus
// the demux table of named services.
type Service struct {
	peerID keys.PeerID
	net    Transport

	mu       sync.RWMutex
	handlers map[string]Handler
	pending  map[requestID]chan *Message
	closed   bool
	done     chan struct{} // closed by Close: pending requests fail at once

	relay    atomic.Value // keys.PeerID; relay hop for unreachable peers
	relaying atomic.Bool  // whether this node forwards for others

	// clock is the node's one time source (nil: the wall). Everything the
	// node signs, compares with a signed time or expires is read from it.
	clock atomic.Pointer[func() time.Time]

	// names interns the source IDs of delivered frames.
	names peerNames

	// RxCount / TxCount feed the statistics primitives.
	rxCount atomic.Uint64
	txCount atomic.Uint64
	rxBytes atomic.Uint64
	txBytes atomic.Uint64
}

// NewService attaches a peer to the transport and returns its endpoint.
func NewService(net Transport, peerID keys.PeerID) (*Service, error) {
	s := &Service{
		peerID:   peerID,
		net:      net,
		handlers: make(map[string]Handler),
		pending:  make(map[requestID]chan *Message),
		done:     make(chan struct{}),
		names:    peerNames{seed: maphash.MakeSeed()},
	}
	s.relay.Store(keys.PeerID(""))
	if err := net.Attach(NodeID(peerID), s.deliver); err != nil {
		return nil, err
	}
	return s, nil
}

// PeerID returns the owning peer's identifier.
func (s *Service) PeerID() keys.PeerID { return s.peerID }

// Now is the time at this node: the broker, client or database attached
// here reads every time it signs, checks or expires by from this call, so
// a node is never in two times at once. Timers, tickers and duration
// measurements are not its business and stay on the wall.
func (s *Service) Now() time.Time {
	if clock := s.clock.Load(); clock != nil {
		return (*clock)()
	}
	return time.Now()
}

// SetClock replaces the node's time source (tests: a peer whose clock is
// ahead, behind or stopped). now is called from every goroutine of the node.
func (s *Service) SetClock(now func() time.Time) { s.clock.Store(&now) }

// RegisterHandler installs the handler for a service name, replacing any
// previous registration.
func (s *Service) RegisterHandler(service string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[service] = h
}

// UnregisterHandler removes a service registration.
func (s *Service) UnregisterHandler(service string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.handlers, service)
}

// SetRelay configures the relay hop (normally the connected broker) used
// when a destination is not directly reachable.
func (s *Service) SetRelay(id keys.PeerID) { s.relay.Store(id) }

// Reachable reports whether the destination peer is currently attached
// to the fabric — the cheap pre-check the broker's store-and-forward
// relay uses to route traffic into the offline queue instead of burning
// a send on a departed peer. A true result is advisory (the peer can
// detach between the check and the send); the send's own error remains
// authoritative.
func (s *Service) Reachable(to keys.PeerID) bool {
	return s.net.Attached(NodeID(to))
}

// EnableRelaying makes this endpoint forward relay frames for others;
// brokers enable it, clients do not.
func (s *Service) EnableRelaying(on bool) { s.relaying.Store(on) }

// Counters returns (messages sent, messages received, bytes sent, bytes
// received).
func (s *Service) Counters() (tx, rx, txBytes, rxBytes uint64) {
	return s.txCount.Load(), s.rxCount.Load(), s.txBytes.Load(), s.rxBytes.Load()
}

// Send delivers msg to the named service on the destination peer, in a
// frame whose prefix names this peer as its source. If the destination
// is not directly reachable (NAT) the frame is routed through the
// configured relay.
func (s *Service) Send(to keys.PeerID, service string, msg *Message) error {
	return s.send(to, Route{Service: service}, nil, msg.Elements)
}

// SendElements is Send for elements held in hand rather than in a
// Message, to the service named service+param (param may be empty). With
// a room, one element's data is written into the frame as it is built
// (BuildFrame): the frame is the one buffer the message ever occupies.
func (s *Service) SendElements(to keys.PeerID, service, param string, room *Room, elems ...Element) error {
	return s.send(to, Route{Service: service, Param: param}, room, elems)
}

// SendEach delivers msg to the named service on each peer of to, as Send
// would, in ONE frame built for all of them: each peer's delivery reads
// the same buffer, so no handler msg reaches may write into its frame
// (the package comment). Each send is checked and counted on its own and
// falls back to the relay on its own; SendEach tries every peer and
// returns the first failure.
func (s *Service) SendEach(to []keys.PeerID, service string, msg *Message) error {
	frame, err := BuildFrame(Route{Src: s.peerID, Service: service}, nil, msg.Elements...)
	if err != nil {
		return err
	}
	var first error
	for _, id := range to {
		if s.isClosed() {
			return ErrClosed
		}
		if err := s.sendFrame(id, frame); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// send builds r's frame from this peer around elems and sends it.
func (s *Service) send(to keys.PeerID, r Route, room *Room, elems []Element) error {
	if s.isClosed() {
		return ErrClosed
	}
	r.Src = s.peerID
	frame, err := BuildFrame(r, room, elems...)
	if err != nil {
		return err
	}
	return s.sendFrame(to, frame)
}

func (s *Service) isClosed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// sendFrame sends a frame this peer built to to, through the relay when
// to is not directly reachable, and counts it.
func (s *Service) sendFrame(to keys.PeerID, frame []byte) error {
	n := len(frame)
	err := s.net.Send(NodeID(s.peerID), NodeID(to), frame)
	if errors.Is(err, simnet.ErrNotReachable) {
		relay := s.relay.Load().(keys.PeerID)
		if relay == "" {
			return fmt.Errorf("%w (dst %s)", ErrNoRelay, to)
		}
		err = s.net.Send(NodeID(s.peerID), NodeID(relay), relayFrame(to, frame))
	}
	if err != nil {
		return err
	}
	s.txCount.Add(1)
	s.txBytes.Add(uint64(n))
	return nil
}

// requestID correlates a request with its response: 96 random bits,
// carried raw in both frames' correlation field.
type requestID [12]byte

// Request sends msg and waits for the handler on the remote side to
// return a response, for timeout to pass (context.DeadlineExceeded; 0
// sets no timeout of its own), for ctx to end, or for the service to
// close. A response that arrives after Request returned answers nothing.
func (s *Service) Request(ctx context.Context, to keys.PeerID, service string, msg *Message, timeout time.Duration) (*Message, error) {
	var id requestID
	if _, err := rand.Read(id[:]); err != nil {
		return nil, err
	}
	ch := make(chan *Message, 1)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.pending[id] = ch
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.pending, id)
		s.mu.Unlock()
	}()

	if err := s.send(to, Route{Service: service, Corr: CorrRequest, CorrID: id[:]}, nil, msg.Elements); err != nil {
		return nil, err
	}
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-expired:
		return nil, context.DeadlineExceeded
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.done:
		return nil, ErrClosed
	}
}

// deliver runs on the transport's delivery goroutines. It reads the
// prefix where it lies: the service and correlation lookups are keyed by
// views and allocate nothing, and from is interned (peerNames). What
// it does besides the handler call is in helpers of their own, so that a
// delivery goroutine's first stack holds the parse.
func (s *Service) deliver(pkt simnet.Packet) {
	if to, inner, ok := cutRelay(pkt.Payload); ok {
		s.forward(len(pkt.Payload), to, inner)
		return
	}
	f, err := ParseFrame(pkt.Payload)
	if err != nil {
		return // malformed frames are dropped, as JXTA does
	}
	s.rxCount.Add(1)
	s.rxBytes.Add(uint64(len(pkt.Payload)))
	if string(f.Service) == svcResponse {
		s.resolve(f.Corr, f.CorrID, f.Msg)
		return
	}
	s.mu.RLock()
	h, ok := s.handlers[string(f.Service)]
	s.mu.RUnlock()
	if !ok {
		return
	}
	from := s.names.intern(f.Src)
	if resp := h(from, f.Msg); resp != nil && f.Corr == CorrRequest && from != "" {
		s.respond(from, f.CorrID, resp)
	}
}

// peerNames interns the peer IDs frames arrive from, so that a delivery
// from a peer seen before makes no string of its source. It is a bounded,
// direct-mapped table looked up by the bytes: a slot holds the last ID
// hashed to it, and an ID that finds another in its slot takes the slot.
// Its worst case is one string per delivery, which is what it replaces.
type peerNames struct {
	seed  maphash.Seed
	slots [64]struct {
		mu sync.Mutex
		id keys.PeerID
	}
}

// intern returns the ID src spells, from the table when it is there.
func (t *peerNames) intern(src []byte) keys.PeerID {
	slot := &t.slots[maphash.Bytes(t.seed, src)%uint64(len(t.slots))]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if string(slot.id) != string(src) {
		slot.id = keys.PeerID(src)
	}
	return slot.id
}

// forward relays the frame inside a relay frame of n bytes to to,
// unchanged, so the receiver sees the original source: a view of a packet
// this node owns and never touches again.
func (s *Service) forward(n int, to, frame []byte) {
	s.rxCount.Add(1)
	s.rxBytes.Add(uint64(n))
	if s.relaying.Load() {
		_ = s.net.Send(NodeID(s.peerID), simnet.NodeID(to), frame)
	}
}

// resolve hands a response to the Request waiting for it, if any: one
// whose correlation ID is not a request ID's length answers nothing.
func (s *Service) resolve(corr Corr, id []byte, msg *Message) {
	if corr != CorrResponse || len(id) != len(requestID{}) {
		return
	}
	s.mu.RLock()
	ch, ok := s.pending[requestID(id)]
	s.mu.RUnlock()
	if ok {
		select {
		case ch <- msg:
		default:
		}
	}
}

// respond sends a handler's response to the request id from from.
func (s *Service) respond(from keys.PeerID, id []byte, resp *Message) {
	_ = s.send(from, Route{Service: svcResponse, Corr: CorrResponse, CorrID: id}, nil, resp.Elements)
}

// Close detaches the endpoint and fails its pending requests.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.done)
	s.mu.Unlock()
	s.net.Detach(NodeID(s.peerID))
}
