// Package events implements the callback side of the JXTA-Overlay
// programming model: applications invoke Client Module primitives and
// react to events thrown by functions executed on message reception.
//
// An event's attributes are read through Event.Attr (or all at once,
// Event.Attrs). Most kinds carry them in Payload, a small map. The event
// every delivery raises, SecureMessage, and the one every join raises at
// each resident, PresenceUpdate, carry theirs as typed fields instead, so
// that neither allocates a map. A SecureMessage's Mode and User are its
// "mode" and "user", and its "authenticated" is always "true" — every
// SecureMessage's sender is authenticated (a plain MessageReceived says
// "false" in its Payload). A PresenceUpdate's User and Status are its
// "user" and "status".
//
// Emit reads its subscriber list without a lock and without a copy: the
// list is published copy-on-write, so a handler that subscribes or
// cancels during an Emit changes what later Emits see, never the one in
// progress. A handler cancelled during an Emit may still see that event,
// and never a later one. Wants reads the same list, so that an emitter
// builds no event that no handler would see.
package events

import (
	"sync"
	"sync/atomic"
	"time"

	"jxtaoverlay/internal/keys"
)

// Type names an event kind.
type Type string

// Event kinds emitted by the middleware. The secure primitives emit the
// Secure* and security-alert variants.
const (
	Connected        Type = "connected"
	Disconnected     Type = "disconnected"
	LoginOK          Type = "login-ok"
	LoginFailed      Type = "login-failed"
	BrokerVerified   Type = "broker-verified"
	BrokerRejected   Type = "broker-rejected"
	MessageReceived  Type = "message-received"
	SecureMessage    Type = "secure-message-received"
	PresenceUpdate   Type = "presence-update"
	GroupUpdated     Type = "group-updated"
	FileIndexUpdated Type = "file-index-updated"
	FileReceived     Type = "file-received"
	SecurityAlert    Type = "security-alert"
	// RelayFlushed is emitted by the broker's store-and-forward relay
	// after draining a returning peer's queue; the "delivered" payload
	// attribute carries the item count.
	RelayFlushed Type = "relay-flushed"
	// Reconnected is emitted by the client resilience layer after an
	// automatic session resume (re-secureLogin, re-announce,
	// re-subscribe) completes; the "attempts" payload attribute
	// carries how many backoff-gated tries the resume took.
	Reconnected Type = "reconnected"
)

// Event is one notification. Payload carries small string attributes;
// Data carries an opaque body (e.g. message text). A SecureMessage and a
// PresenceUpdate carry their attributes in typed fields, not in Payload
// (see the package comment); read any event's through Attr.
type Event struct {
	Type    Type
	From    keys.PeerID
	Group   string
	Payload map[string]string
	Data    []byte

	// Mode and User are a SecureMessage's "mode" (the wire form it
	// arrived in) and "user" (its sender's certified name).
	Mode string
	User string
	// Status is a PresenceUpdate's "status" (advert.StatusOnline or
	// StatusOffline); its User is the peer's user name.
	Status string
}

// The attributes SecureMessage and PresenceUpdate carry as typed fields.
const (
	attrAuthenticated = "authenticated"
	attrMode          = "mode"
	attrUser          = "user"
	attrStatus        = "status"
)

// typedAttrs names the attributes a kind carries as typed fields.
func typedAttrs(t Type) []string {
	switch t {
	case SecureMessage:
		return []string{attrAuthenticated, attrMode, attrUser}
	case PresenceUpdate:
		return []string{attrUser, attrStatus}
	}
	return nil
}

// Attr returns an attribute or "".
func (e Event) Attr(key string) string {
	switch e.Type {
	case SecureMessage:
		switch key {
		case attrAuthenticated:
			return "true"
		case attrMode:
			return e.Mode
		case attrUser:
			return e.User
		}
	case PresenceUpdate:
		switch key {
		case attrUser:
			return e.User
		case attrStatus:
			return e.Status
		}
	}
	return e.Payload[key]
}

// Attrs returns every attribute Attr reads, in a map of its own: for
// printing and logging, not for a delivery's path.
func (e Event) Attrs() map[string]string {
	typed := typedAttrs(e.Type)
	out := make(map[string]string, len(e.Payload)+len(typed))
	for k, v := range e.Payload {
		out[k] = v
	}
	for _, k := range typed {
		out[k] = e.Attr(k)
	}
	return out
}

// Handler consumes events. Handlers run synchronously on the emitting
// goroutine; long work should be dispatched by the application.
type Handler func(Event)

type subscription struct {
	id int64
	t  Type // "" = wildcard
	h  Handler
}

// Bus is a typed publish/subscribe dispatcher.
type Bus struct {
	mu   sync.Mutex // serializes changes to subs
	subs atomic.Pointer[[]subscription]
	next atomic.Int64
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Subscribe registers a handler for one event type. It returns an
// unsubscribe function.
func (b *Bus) Subscribe(t Type, h Handler) (cancel func()) {
	return b.add(t, h)
}

// SubscribeAll registers a wildcard handler receiving every event.
func (b *Bus) SubscribeAll(h Handler) (cancel func()) {
	return b.add("", h)
}

func (b *Bus) add(t Type, h Handler) func() {
	id := b.next.Add(1)
	b.update(func(subs []subscription) []subscription {
		return append(subs, subscription{id: id, t: t, h: h})
	})
	return func() {
		b.update(func(subs []subscription) []subscription {
			for i, s := range subs {
				if s.id == id {
					return append(subs[:i], subs[i+1:]...)
				}
			}
			return subs
		})
	}
}

// update publishes change applied to a copy of the subscriber list: a
// list once published is never written again, so Emit reads it as is.
func (b *Bus) update(change func([]subscription) []subscription) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var next []subscription
	if cur := b.subs.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = change(next)
	b.subs.Store(&next)
}

// Wants reports whether an Emit of an event of type t would reach a
// handler now: one atomic load and a scan of the subscriber list. An
// emitter whose event costs something to build asks first, and builds
// none that nobody listens to.
func (b *Bus) Wants(t Type) bool {
	subs := b.subs.Load()
	if subs == nil {
		return false
	}
	for _, s := range *subs {
		if s.t == "" || s.t == t {
			return true
		}
	}
	return false
}

// Emit dispatches the event to matching handlers, in the order they
// subscribed, on the caller's goroutine.
func (b *Bus) Emit(e Event) {
	subs := b.subs.Load()
	if subs == nil {
		return
	}
	for _, s := range *subs {
		if s.t == "" || s.t == e.Type {
			s.h(e)
		}
	}
}

// Collector buffers events for tests and examples.
type Collector struct {
	mu     sync.Mutex
	events []Event
	waitCh chan struct{}
}

// NewCollector subscribes a collector to every event on the bus.
func NewCollector(b *Bus) *Collector {
	c := &Collector{waitCh: make(chan struct{}, 64)}
	b.SubscribeAll(func(e Event) {
		c.mu.Lock()
		c.events = append(c.events, e)
		c.mu.Unlock()
		select {
		case c.waitCh <- struct{}{}:
		default:
		}
	})
	return c
}

// Events returns a snapshot of collected events.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// OfType returns collected events of one type.
func (c *Collector) OfType(t Type) []Event {
	var out []Event
	for _, e := range c.Events() {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

// WaitFor blocks until an event of type t has been collected or the
// timeout elapses; it reports whether the event arrived.
func (c *Collector) WaitFor(t Type, timeout time.Duration) (Event, bool) {
	deadline := time.After(timeout)
	for {
		if evs := c.OfType(t); len(evs) > 0 {
			return evs[0], true
		}
		select {
		case <-c.waitCh:
		case <-deadline:
			if evs := c.OfType(t); len(evs) > 0 {
				return evs[0], true
			}
			return Event{}, false
		}
	}
}
