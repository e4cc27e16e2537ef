// Package control implements the Control Module: the intermediate layer
// between the Broker and Client Modules providing the generic group
// management and messaging machinery (paper §2.2).
//
// Concretely it holds a peer's advertisement cache and event bus and, on
// a client, its group pipes: the JXTA pipe is the virtual channel the
// Control Module messages through, and a client binds one unicast input
// pipe per group it belongs to. Other peers send to it by its pipe
// advertisement. A broker binds no pipe. Presence travels on the broker's
// pushes; a peer announces nothing on a timer.
package control

import (
	"bytes"
	"errors"
	"runtime"
	"strconv"
	"sync"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/discovery"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
)

// PipeService namespaces pipe traffic inside the endpoint demux: a pipe's
// endpoint service is PipeService followed by the pipe's ID.
const PipeService = "jxta:pipe:"

// pipeQueue is how many deliveries a group pipe holds for its pump.
// Another one waits on its delivering goroutine until the pump takes one.
const pipeQueue = 128

// MsgHandler consumes messages arriving on a group input pipe. from is the
// sender identifier claimed in the message's routing; absent the security
// extension it is unauthenticated.
type MsgHandler func(group string, from keys.PeerID, msg *endpoint.Message)

// errClosed is returned by BindGroupPipe after Close.
var errClosed = errors.New("control: module closed")

// Module is the shared messaging substrate of a JXTA-Overlay entity.
type Module struct {
	ep      *endpoint.Service
	cache   *discovery.Cache
	bus     *events.Bus
	handler MsgHandler

	mu     sync.Mutex
	pipes  map[string]*groupPipe // by group
	closed bool
	// pumps holds the goroutine IDs of the pumps still running, unbound
	// pipes' included: an unbind called from one of them waits for none.
	pumps map[uint64]struct{}
}

// groupPipe is one bound group pipe. Its endpoint handler queues each
// delivery, and the group's one pump goroutine hands them to the module's
// handler in the order they were queued.
type groupPipe struct {
	adv    *advert.Pipe
	ch     chan delivery
	done   chan struct{} // closed when the pipe is unbound
	exited chan struct{} // closed by the pump as it returns
}

// delivery is one queued message: a copy of its table the queue holds
// (endpoint.Hold), given back once the pump's handler has returned.
type delivery struct {
	from keys.PeerID
	msg  *endpoint.Held
}

// New creates a control module over an endpoint. handler consumes what
// the module's group pipes deliver; a module that binds no pipe (a
// broker's) passes nil.
func New(ep *endpoint.Service, cache *discovery.Cache, bus *events.Bus, handler MsgHandler) *Module {
	return &Module{
		ep:      ep,
		cache:   cache,
		bus:     bus,
		handler: handler,
		pipes:   make(map[string]*groupPipe),
		pumps:   make(map[uint64]struct{}),
	}
}

// Cache returns the local advertisement cache.
func (m *Module) Cache() *discovery.Cache { return m.cache }

// Bus returns the event bus.
func (m *Module) Bus() *events.Bus { return m.bus }

// BindGroupPipe creates (or returns) the input pipe for a group and its
// advertisement. The advertisement is cached locally; publishing it to
// the broker is the caller's job. The pipe's ID is advert.GroupPipeID of
// this peer and the group: every session binds the same pipe, so what a
// correspondent cached during an earlier one still reaches this one.
func (m *Module) BindGroupPipe(group string) (*advert.Pipe, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errClosed
	}
	if p, ok := m.pipes[group]; ok {
		return p.adv, nil
	}
	adv := &advert.Pipe{
		PipeID:   advert.GroupPipeID(m.ep.PeerID(), group),
		PipeType: advert.PipeUnicast,
		PeerID:   m.ep.PeerID(),
		Group:    group,
	}
	if err := m.cache.PutAdv(adv); err != nil {
		return nil, err
	}
	p := &groupPipe{adv: adv, ch: make(chan delivery, pipeQueue), done: make(chan struct{}), exited: make(chan struct{})}
	m.ep.RegisterHandler(PipeService+adv.PipeID, func(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
		// msg's table is lent for this call only: the queue holds a copy
		// from the same pool. A queued delivery's elements are views of its
		// frame, so the queue holds each frame whole. A full queue holds the
		// fabric's delivery goroutine here, so nothing a sender was told is
		// sent is dropped.
		held := endpoint.Hold(msg)
		select {
		case p.ch <- delivery{from, held}:
		case <-p.done:
			held.Release()
		}
		return nil
	})
	m.pipes[group] = p
	go m.pump(group, p)
	return adv, nil
}

func (m *Module) pump(group string, p *groupPipe) {
	id := goid()
	m.mu.Lock()
	m.pumps[id] = struct{}{}
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.pumps, id)
		m.mu.Unlock()
		close(p.exited)
	}()
	for {
		// An unbound pipe hands its handler nothing more, queued or not.
		select {
		case <-p.done:
			return
		default:
		}
		select {
		case d := <-p.ch:
			m.handler(group, d.from, &d.msg.Message)
			d.msg.Release()
		case <-p.done:
			return
		}
	}
}

// UnbindGroupPipe closes and forgets the group's input pipe, and returns
// once its pump has exited: no delivery of the pipe is being handled
// after it, so what a caller resets next (a session's channels) stays
// reset. The pipe is closed under the lock — a re-bind registers the same
// endpoint handler name, which a close running after it would take away
// again — and waited for outside it.
func (m *Module) UnbindGroupPipe(group string) {
	m.mu.Lock()
	p := m.pipes[group]
	if p != nil {
		m.closePipe(p)
		delete(m.pipes, group)
	}
	m.mu.Unlock()
	if p != nil {
		m.awaitPumps(p)
	}
}

// closePipe unregisters p's endpoint handler and releases its pump and
// any delivery waiting for room. Callers hold m.mu.
func (m *Module) closePipe(p *groupPipe) {
	m.ep.UnregisterHandler(PipeService + p.adv.PipeID)
	close(p.done)
}

// awaitPumps waits for the closed pipes' pumps to exit — unless the caller
// is a pump itself (a handler that logs out): it would wait for itself,
// or for a pump that waits for it. Callers do not hold m.mu, which an
// exiting pump takes.
func (m *Module) awaitPumps(closed ...*groupPipe) {
	m.mu.Lock()
	_, onPump := m.pumps[goid()]
	m.mu.Unlock()
	if onPump {
		return
	}
	for _, p := range closed {
		<-p.exited
	}
}

// goid is the calling goroutine's ID, read from its stack trace's first
// line ("goroutine 42 [running]:"). Only a pump's start and an unbind
// ask.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// GroupPipeAdv returns the local pipe advertisement for a group.
func (m *Module) GroupPipeAdv(group string) (*advert.Pipe, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.pipes[group]; ok {
		return p.adv, true
	}
	return nil, false
}

// SendOnPipe sends one message, made of elems, to the peer hosting a
// pipe, through it. room, when set, writes one element's data into the
// frame as it is built (endpoint.Room).
func (m *Module) SendOnPipe(adv *advert.Pipe, room *endpoint.Room, elems ...endpoint.Element) error {
	return m.ep.SendElements(adv.PeerID, PipeService, adv.PipeID, room, elems...)
}

// Close unbinds every pipe and returns once their pumps have exited, as
// UnbindGroupPipe does. Bind fails afterwards.
func (m *Module) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	closed := make([]*groupPipe, 0, len(m.pipes))
	for _, p := range m.pipes {
		m.closePipe(p)
		closed = append(closed, p)
	}
	m.pipes = nil
	m.mu.Unlock()
	m.awaitPumps(closed...)
}

// Emit is a convenience for modules above to publish an event.
func (m *Module) Emit(t events.Type, from keys.PeerID, group string, payload map[string]string, data []byte) {
	m.bus.Emit(events.Event{Type: t, From: from, Group: group, Payload: payload, Data: data})
}
