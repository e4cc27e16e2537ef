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

// Reserved element names used by the endpoint layer itself.
const (
	elemSrc   = "jxta:src"
	elemDst   = "jxta:dst"
	elemSvc   = "jxta:svc"
	elemReqID = "jxta:reqid"
	elemRspID = "jxta:rspid"
	// svcResponse is the internal service that resolves pending requests.
	svcResponse = "jxta:resp"
	// svcRelay is the internal service relay-enabled nodes (brokers)
	// forward for NATed peers.
	svcRelay = "jxta:relay"
	// relayTo and relayPayload carry the final destination and the
	// original frame inside a relay message.
	relayTo      = "jxta:relay:to"
	relayPayload = "jxta:relay:frame"
)

// Handler processes a message delivered to a registered service. The
// from argument is the peer ID claimed by the sender in the message
// envelope — note that without the security extension nothing
// authenticates it. A non-nil return value is sent back as the response
// when the message was a Request.
type Handler func(from keys.PeerID, msg *Message) *Message

// Errors returned by Send/Request.
var (
	ErrNoRelay    = errors.New("endpoint: destination unreachable and no relay configured")
	ErrClosed     = errors.New("endpoint: service closed")
	ErrBadRequest = errors.New("endpoint: malformed request")
)

// NodeID maps a peer ID onto its simnet attachment point.
func NodeID(id keys.PeerID) simnet.NodeID { return simnet.NodeID(id) }

// Service is one peer's endpoint: its attachment to the network plus the
// demux table of named services.
type Service struct {
	peerID keys.PeerID
	net    *simnet.Network

	mu       sync.RWMutex
	handlers map[string]Handler
	pending  map[string]chan *Message
	closed   bool

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

// NewService attaches a peer to the network and returns its endpoint.
func NewService(net *simnet.Network, peerID keys.PeerID) (*Service, error) {
	s := &Service{
		peerID:   peerID,
		net:      net,
		handlers: make(map[string]Handler),
		pending:  make(map[string]chan *Message),
	}
	s.relay.Store(keys.PeerID(""))
	if err := net.Attach(NodeID(peerID), s.deliver); err != nil {
		return nil, err
	}
	return s, nil
}

// PeerID returns the owning peer's identifier.
func (s *Service) PeerID() keys.PeerID { return s.peerID }

// Network returns the underlying fabric (used by diagnostics and tests).
func (s *Service) Network() *simnet.Network { return s.net }

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

// Send delivers msg to the named service on the destination peer. The
// message is stamped with the source, destination and service elements.
// If the destination is not directly reachable (NAT) the frame is routed
// through the configured relay.
func (s *Service) Send(to keys.PeerID, service string, msg *Message) error {
	return s.send(to, service, msg, "", "")
}

// send stamps a copy of msg's element list — never the caller's message,
// and never the element data, which Marshal copies into the frame once —
// with the routing elements and, when corr names one, the request or
// response correlation ID.
func (s *Service) send(to keys.PeerID, service string, msg *Message, corr, id string) error {
	m := Message{Elements: append(make([]Element, 0, len(msg.Elements)+4), msg.Elements...)}
	if corr != "" {
		m.Set(corr, []byte(id))
	}
	m.Set(elemSrc, []byte(s.peerID))
	m.Set(elemDst, []byte(to))
	m.Set(elemSvc, []byte(service))
	return s.sendFrame(to, m.Marshal())
}

func (s *Service) sendFrame(to keys.PeerID, frame []byte) error {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	err := s.net.Send(NodeID(s.peerID), NodeID(to), frame)
	if errors.Is(err, simnet.ErrNotReachable) {
		relay := s.relay.Load().(keys.PeerID)
		if relay == "" {
			return fmt.Errorf("%w (dst %s)", ErrNoRelay, to)
		}
		wrapper := NewMessage()
		wrapper.Set(elemSrc, []byte(s.peerID))
		wrapper.Set(elemDst, []byte(relay))
		wrapper.Set(elemSvc, []byte(svcRelay))
		wrapper.AddString(relayTo, string(to))
		wrapper.Add(relayPayload, frame)
		err = s.net.Send(NodeID(s.peerID), NodeID(relay), wrapper.Marshal())
	}
	if err != nil {
		return err
	}
	s.txCount.Add(1)
	s.txBytes.Add(uint64(len(frame)))
	return nil
}

// Request sends msg and waits for the handler on the remote side to
// return a response, or for ctx to end.
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

	if err := s.send(to, service, msg, elemReqID, reqID); err != nil {
		return nil, err
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// deliver runs on simnet delivery goroutines.
func (s *Service) deliver(pkt simnet.Packet) {
	msg, err := ParseMessage(pkt.Payload)
	if err != nil {
		return // malformed frames are dropped, as JXTA does
	}
	s.rxCount.Add(1)
	s.rxBytes.Add(uint64(len(pkt.Payload)))

	svc, _ := msg.GetString(elemSvc)
	from := keys.PeerID("")
	if src, ok := msg.GetString(elemSrc); ok {
		from = keys.PeerID(src)
	}

	switch svc {
	case svcRelay:
		if !s.relaying.Load() {
			return
		}
		to, ok1 := msg.GetString(relayTo)
		frame, ok2 := msg.Get(relayPayload)
		if !ok1 || !ok2 {
			return
		}
		// Forward the original frame unchanged: the inner source element
		// is preserved, so the receiver sees the original sender.
		_ = s.net.Send(NodeID(s.peerID), simnet.NodeID(to), frame)
		return
	case svcResponse:
		rspID, _ := msg.GetString(elemRspID)
		s.mu.RLock()
		ch, ok := s.pending[rspID]
		s.mu.RUnlock()
		if ok {
			select {
			case ch <- msg:
			default:
			}
		}
		return
	}

	s.mu.RLock()
	h, ok := s.handlers[svc]
	s.mu.RUnlock()
	if !ok {
		return
	}
	resp := h(from, msg)
	if resp == nil {
		return
	}
	if reqID, ok := msg.GetString(elemReqID); ok && from != "" {
		_ = s.send(from, svcResponse, resp, elemRspID, reqID)
	}
}

// Close detaches the endpoint; pending requests fail when their contexts
// expire.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.net.Detach(NodeID(s.peerID))
}
