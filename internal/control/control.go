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
	"errors"
	"fmt"
	"sync"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/discovery"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
)

// servicePrefix namespaces pipe traffic inside the endpoint demux.
const servicePrefix = "jxta:pipe:"

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
}

// groupPipe is one bound group pipe. Its endpoint handler queues each
// delivery, and the group's one pump goroutine hands them to the module's
// handler in the order they were queued.
type groupPipe struct {
	adv  *advert.Pipe
	ch   chan delivery
	done chan struct{} // closed when the pipe is unbound
}

type delivery struct {
	from keys.PeerID
	msg  *endpoint.Message
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
		Name:     fmt.Sprintf("msg/%s/%s", group, m.ep.PeerID()),
		PeerID:   m.ep.PeerID(),
		Group:    group,
	}
	if err := m.cache.PutAdv(adv); err != nil {
		return nil, err
	}
	p := &groupPipe{adv: adv, ch: make(chan delivery, pipeQueue), done: make(chan struct{})}
	m.ep.RegisterHandler(servicePrefix+adv.PipeID, func(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
		// A queued delivery's elements are views of its frame: the queue
		// holds each frame whole. A full queue holds the fabric's delivery
		// goroutine here, so nothing a sender was told is sent is dropped.
		select {
		case p.ch <- delivery{from, msg}:
		case <-p.done:
		}
		return nil
	})
	m.pipes[group] = p
	go m.pump(group, p)
	return adv, nil
}

func (m *Module) pump(group string, p *groupPipe) {
	for {
		select {
		case d := <-p.ch:
			m.handler(group, d.from, d.msg)
		case <-p.done:
			return
		}
	}
}

// UnbindGroupPipe closes and forgets the group's input pipe. The pipe is
// closed under the lock: a re-bind registers the same endpoint handler
// name, which a close running after it would take away again.
func (m *Module) UnbindGroupPipe(group string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p := m.pipes[group]; p != nil {
		m.closePipe(p)
		delete(m.pipes, group)
	}
}

// closePipe unregisters p's endpoint handler and releases its pump and
// any delivery waiting for room. Callers hold m.mu.
func (m *Module) closePipe(p *groupPipe) {
	m.ep.UnregisterHandler(servicePrefix + p.adv.PipeID)
	close(p.done)
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

// SendOnPipe sends one message to the peer hosting a pipe, through it.
func (m *Module) SendOnPipe(adv *advert.Pipe, msg *endpoint.Message) error {
	return m.ep.Send(adv.PeerID, servicePrefix+adv.PipeID, msg)
}

// Close unbinds every pipe. Bind fails afterwards.
func (m *Module) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	for _, p := range m.pipes {
		m.closePipe(p)
	}
	m.pipes = nil
}

// Emit is a convenience for modules above to publish an event.
func (m *Module) Emit(t events.Type, from keys.PeerID, group string, payload map[string]string, data []byte) {
	m.bus.Emit(events.Event{Type: t, From: from, Group: group, Payload: payload, Data: data})
}
