// Package control implements the Control Module: the intermediate layer
// between the Broker and Client Modules providing the generic group
// management and messaging machinery (paper §2.2).
//
// Concretely it owns the per-group input pipes of a peer (client peers
// bind one input pipe per group; brokers a single shared one), pumps
// deliveries to registered message handlers, and runs the periodic
// presence announcer each client uses to broadcast its advertisements.
package control

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/discovery"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/pipes"
)

// MsgHandler consumes messages arriving on a group input pipe.
type MsgHandler func(group string, d pipes.Delivery)

// Module is the shared messaging substrate of a JXTA-Overlay entity.
type Module struct {
	ep    *endpoint.Service
	cache *discovery.Cache
	bus   *events.Bus

	mu       sync.Mutex
	inPipes  map[string]*pipes.InputPipe // by group
	pipeAdvs map[string]*advert.Pipe
	handler  MsgHandler
	pumpWG   sync.WaitGroup
	closed   bool

	announceCancel context.CancelFunc
}

// New creates a control module over an endpoint.
func New(ep *endpoint.Service, cache *discovery.Cache, bus *events.Bus) *Module {
	return &Module{
		ep:       ep,
		cache:    cache,
		bus:      bus,
		inPipes:  make(map[string]*pipes.InputPipe),
		pipeAdvs: make(map[string]*advert.Pipe),
	}
}

// Endpoint returns the underlying endpoint service.
func (m *Module) Endpoint() *endpoint.Service { return m.ep }

// Cache returns the local advertisement cache.
func (m *Module) Cache() *discovery.Cache { return m.cache }

// Bus returns the event bus.
func (m *Module) Bus() *events.Bus { return m.bus }

// SetMessageHandler installs the consumer for pipe deliveries. It must
// be set before pipes are bound.
func (m *Module) SetMessageHandler(h MsgHandler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handler = h
}

// ErrClosed is returned after Close.
var ErrClosed = errors.New("control: module closed")

// BindGroupPipe creates (or returns) the input pipe for a group and its
// advertisement. The advertisement is cached locally; publishing it to
// the broker is the caller's job. The pipe's ID is advert.GroupPipeID of
// this peer and the group: every session binds the same pipe, so what a
// correspondent cached during an earlier one still reaches this one.
func (m *Module) BindGroupPipe(group string) (*advert.Pipe, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if adv, ok := m.pipeAdvs[group]; ok {
		return adv, nil
	}
	adv := &advert.Pipe{
		PipeID:   advert.GroupPipeID(m.ep.PeerID(), group),
		PipeType: advert.PipeUnicast,
		Name:     fmt.Sprintf("msg/%s/%s", group, m.ep.PeerID()),
		PeerID:   m.ep.PeerID(),
		Group:    group,
	}
	in, err := pipes.CreateInputPipe(m.ep, adv, 128)
	if err != nil {
		return nil, err
	}
	if err := m.cache.PutAdv(adv); err != nil {
		in.Close()
		return nil, err
	}
	m.inPipes[group] = in
	m.pipeAdvs[group] = adv

	m.pumpWG.Add(1)
	go m.pump(group, in)
	return adv, nil
}

func (m *Module) pump(group string, in *pipes.InputPipe) {
	defer m.pumpWG.Done()
	for {
		select {
		case d := <-in.Chan():
			m.mu.Lock()
			h := m.handler
			m.mu.Unlock()
			if h != nil {
				h(group, d)
			}
		case <-in.Done():
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
	if in := m.inPipes[group]; in != nil {
		in.Close()
	}
	delete(m.inPipes, group)
	delete(m.pipeAdvs, group)
}

// GroupPipeAdv returns the local pipe advertisement for a group.
func (m *Module) GroupPipeAdv(group string) (*advert.Pipe, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	adv, ok := m.pipeAdvs[group]
	return adv, ok
}

// BoundGroups lists groups with bound pipes.
func (m *Module) BoundGroups() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.inPipes))
	for g := range m.inPipes {
		out = append(out, g)
	}
	return out
}

// SendOnPipe resolves a unicast pipe advertisement and sends one message
// through it.
func (m *Module) SendOnPipe(adv *advert.Pipe, msg *endpoint.Message) error {
	out, err := pipes.ResolveOutputPipe(m.ep, adv)
	if err != nil {
		return err
	}
	return out.Send(msg)
}

// PublishFunc pushes an advertisement document to the network (the
// client module implements it as a broker publish).
type PublishFunc func(ctx context.Context, adv advert.Advertisement) error

// StartAnnouncer begins periodic presence broadcasting for the given
// groups provider. It stops when the module closes or StopAnnouncer is
// called. Each tick publishes one presence advertisement per group, as
// JXTA-Overlay clients do.
func (m *Module) StartAnnouncer(interval time.Duration, name string, groupsFn func() []string, publish PublishFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	m.mu.Lock()
	if m.announceCancel != nil {
		m.announceCancel()
	}
	m.announceCancel = cancel
	m.mu.Unlock()

	m.pumpWG.Add(1)
	go func() {
		defer m.pumpWG.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				for _, g := range groupsFn() {
					pres := &advert.Presence{
						PeerID: m.ep.PeerID(),
						Name:   name,
						Group:  g,
						Status: advert.StatusOnline,
						Seen:   m.ep.Now(),
					}
					pubCtx, pubCancel := context.WithTimeout(ctx, interval)
					_ = publish(pubCtx, pres)
					pubCancel()
				}
			}
		}
	}()
}

// StopAnnouncer halts presence broadcasting.
func (m *Module) StopAnnouncer() {
	m.mu.Lock()
	cancel := m.announceCancel
	m.announceCancel = nil
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Close unbinds every pipe and stops background work.
func (m *Module) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	pipesToClose := make([]*pipes.InputPipe, 0, len(m.inPipes))
	for _, in := range m.inPipes {
		pipesToClose = append(pipesToClose, in)
	}
	m.inPipes = map[string]*pipes.InputPipe{}
	m.pipeAdvs = map[string]*advert.Pipe{}
	cancel := m.announceCancel
	m.announceCancel = nil
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	for _, in := range pipesToClose {
		in.Close()
	}
}

// Emit is a convenience for modules above to publish an event.
func (m *Module) Emit(t events.Type, from keys.PeerID, group string, payload map[string]string, data []byte) {
	m.bus.Emit(events.Event{Type: t, From: from, Group: group, Payload: payload, Data: data})
}
