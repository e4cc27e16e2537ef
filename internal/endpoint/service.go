package endpoint

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
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
	// Send hands frame to the fabric for delivery to to. When it returns
	// nil the frame is the transport's, then the receiving handler's, and
	// the sender neither reads nor writes it again; when it fails the
	// frame is still the sender's.
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
	ErrNoRelay    = errors.New("endpoint: destination unreachable and no relay configured")
	ErrClosed     = errors.New("endpoint: service closed")
	ErrBadRequest = errors.New("endpoint: malformed request")
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
	pending  map[string]chan *Message
	closed   bool
	done     chan struct{} // closed by Close: pending requests fail at once

	relay    atomic.Value // keys.PeerID; relay hop for unreachable peers
	relaying atomic.Bool  // whether this node forwards for others

	// clock is the node's one time source (nil: the wall). Everything the
	// node signs, compares with a signed time or expires is read from it.
	clock atomic.Pointer[func() time.Time]

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
		pending:  make(map[string]chan *Message),
		done:     make(chan struct{}),
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

// send builds r's frame from this peer around elems and sends it.
func (s *Service) send(to keys.PeerID, r Route, room *Room, elems []Element) error {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	r.Src = s.peerID
	frame, err := BuildFrame(r, room, elems...)
	if err != nil {
		return err
	}
	n := len(frame)
	err = s.net.Send(NodeID(s.peerID), NodeID(to), frame)
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

// Request sends msg and waits for the handler on the remote side to
// return a response, for ctx to end, or for the service to close.
func (s *Service) Request(ctx context.Context, to keys.PeerID, service string, msg *Message) (*Message, error) {
	idBytes, err := keys.RandomBytes(12)
	if err != nil {
		return nil, err
	}
	reqID := hex.EncodeToString(idBytes)
	ch := make(chan *Message, 1)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.pending[reqID] = ch
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.pending, reqID)
		s.mu.Unlock()
	}()

	if err := s.send(to, Route{Service: service, Corr: CorrRequest, CorrID: []byte(reqID)}, nil, msg.Elements); err != nil {
		return nil, err
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.done:
		return nil, ErrClosed
	}
}

// deliver runs on the transport's delivery goroutines. It reads the
// prefix where it lies: the service and correlation lookups are keyed by
// views and allocate nothing, and from is the one string it makes. What
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
	from := keys.PeerID(f.Src)
	if resp := h(from, f.Msg); resp != nil && f.Corr == CorrRequest && from != "" {
		s.respond(from, f.CorrID, resp)
	}
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

// resolve hands a response to the Request waiting for it, if any.
func (s *Service) resolve(corr Corr, id []byte, msg *Message) {
	s.mu.RLock()
	ch, ok := s.pending[string(id)]
	s.mu.RUnlock()
	if ok && corr == CorrResponse {
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
