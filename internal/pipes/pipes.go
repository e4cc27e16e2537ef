// Package pipes implements JXTA pipes — the virtual communication
// channels the Control Module uses for direct messaging between
// JXTA-Overlay entities. A peer binds an InputPipe for each group it
// belongs to (brokers bind a single shared one); other peers resolve the
// matching pipe advertisement into an OutputPipe and send messages
// through it.
//
// Unicast pipes map to a single endpoint service; propagate pipes fan
// out to the current members of a group as reported by a MemberProvider
// (in JXTA-Overlay the broker's view of the group).
package pipes

import (
	"context"
	"errors"
	"fmt"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
)

// servicePrefix namespaces pipe traffic inside the endpoint demux.
const servicePrefix = "jxta:pipe:"

// Errors returned by pipe operations.
var (
	ErrClosed      = errors.New("pipes: pipe closed")
	ErrNotOwner    = errors.New("pipes: advertisement names a different peer")
	ErrWrongType   = errors.New("pipes: wrong pipe type for operation")
	ErrNoProvider  = errors.New("pipes: propagate pipe requires a member provider")
	ErrBufferFull  = errors.New("pipes: input pipe buffer full, message dropped")
	errNilElements = errors.New("pipes: nil advertisement or service")
)

// Delivery is one message received on an input pipe. From is the sender
// identifier claimed in the message envelope; absent the security
// extension it is unauthenticated.
type Delivery struct {
	From keys.PeerID
	Msg  *endpoint.Message
}

// InputPipe is the receiving end of a pipe.
type InputPipe struct {
	adv  *advert.Pipe
	svc  *endpoint.Service
	ch   chan Delivery
	done chan struct{}
}

// CreateInputPipe binds the advertisement's pipe on this peer's endpoint
// and starts queuing deliveries (up to buffer messages; further messages
// are dropped, matching JXTA's best-effort unicast pipes).
func CreateInputPipe(svc *endpoint.Service, adv *advert.Pipe, buffer int) (*InputPipe, error) {
	if svc == nil || adv == nil {
		return nil, errNilElements
	}
	if adv.PeerID != svc.PeerID() {
		return nil, fmt.Errorf("%w: %s", ErrNotOwner, adv.PeerID)
	}
	if buffer <= 0 {
		buffer = 64
	}
	ip := &InputPipe{
		adv:  adv,
		svc:  svc,
		ch:   make(chan Delivery, buffer),
		done: make(chan struct{}),
	}
	svc.RegisterHandler(servicePrefix+adv.PipeID, func(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
		// A buffered delivery's elements are views of its frame: the queue
		// holds each frame whole, as many bytes as the copies it used to.
		select {
		case <-ip.done:
		case ip.ch <- Delivery{From: from, Msg: msg}:
		default:
			// Buffer full: best-effort drop.
		}
		return nil
	})
	return ip, nil
}

// Advertisement returns the pipe's advertisement.
func (ip *InputPipe) Advertisement() *advert.Pipe { return ip.adv }

// Receive blocks for the next delivery or context cancellation.
func (ip *InputPipe) Receive(ctx context.Context) (Delivery, error) {
	select {
	case d := <-ip.ch:
		return d, nil
	case <-ip.done:
		return Delivery{}, ErrClosed
	case <-ctx.Done():
		return Delivery{}, ctx.Err()
	}
}

// Chan exposes the delivery channel for select-based consumers.
func (ip *InputPipe) Chan() <-chan Delivery { return ip.ch }

// Done is closed when the pipe closes; pair it with Chan in selects.
func (ip *InputPipe) Done() <-chan struct{} { return ip.done }

// Close unbinds the pipe. Pending buffered deliveries remain readable
// from Chan until drained.
func (ip *InputPipe) Close() {
	select {
	case <-ip.done:
		return
	default:
	}
	close(ip.done)
	ip.svc.UnregisterHandler(servicePrefix + ip.adv.PipeID)
}

// MemberProvider reports the current members of a group; propagate
// pipes use it to resolve their fan-out set at send time.
type MemberProvider interface {
	Members(group string) []keys.PeerID
}

// MemberProviderFunc adapts a function to the MemberProvider interface.
type MemberProviderFunc func(group string) []keys.PeerID

// Members implements MemberProvider.
func (f MemberProviderFunc) Members(group string) []keys.PeerID { return f(group) }

// OutputPipe is the sending end of a resolved pipe.
type OutputPipe struct {
	adv      *advert.Pipe
	svc      *endpoint.Service
	provider MemberProvider
}

// ResolveOutputPipe binds an output pipe to a unicast pipe
// advertisement.
func ResolveOutputPipe(svc *endpoint.Service, adv *advert.Pipe) (*OutputPipe, error) {
	if svc == nil || adv == nil {
		return nil, errNilElements
	}
	if adv.PipeType != advert.PipeUnicast {
		return nil, fmt.Errorf("%w: %s", ErrWrongType, adv.PipeType)
	}
	return &OutputPipe{adv: adv, svc: svc}, nil
}

// ResolvePropagatePipe binds an output pipe to a propagate pipe
// advertisement; sends fan out to the provider's current member list.
func ResolvePropagatePipe(svc *endpoint.Service, adv *advert.Pipe, provider MemberProvider) (*OutputPipe, error) {
	if svc == nil || adv == nil {
		return nil, errNilElements
	}
	if adv.PipeType != advert.PipePropagate {
		return nil, fmt.Errorf("%w: %s", ErrWrongType, adv.PipeType)
	}
	if provider == nil {
		return nil, ErrNoProvider
	}
	return &OutputPipe{adv: adv, svc: svc, provider: provider}, nil
}

// Advertisement returns the resolved advertisement.
func (op *OutputPipe) Advertisement() *advert.Pipe { return op.adv }

// Send delivers the message through the pipe. For unicast pipes this is
// a single endpoint send to the advertised peer. For propagate pipes the
// message is sent to every current group member except the sender; the
// first error is returned after attempting all members.
func (op *OutputPipe) Send(msg *endpoint.Message) error {
	if op.adv.PipeType == advert.PipeUnicast {
		return op.svc.Send(op.adv.PeerID, servicePrefix+op.adv.PipeID, msg)
	}
	var firstErr error
	for _, member := range op.provider.Members(op.adv.Group) {
		if member == op.svc.PeerID() {
			continue
		}
		if err := op.svc.Send(member, servicePrefix+op.adv.PipeID, msg); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
