// Package simnet is the in-memory network substrate the overlay runs on.
//
// The paper evaluates on a physical LAN with a deliberately low-end
// client machine. This repository replaces that testbed with a simulated
// network whose links have configurable latency, jitter, bandwidth and
// loss, plus partition and NAT-style reachability controls. Crypto cost
// is still paid natively by the caller's CPU; only wire time is modeled,
// which preserves the trade-off the paper measures (crypto overhead vs
// transport time).
//
// Each packet is delivered on a goroutine of the network's own after its
// modeled wire time. A delivery goroutine that finishes parks for the
// next packet, so a steady flow reuses a few goroutines, stacks already
// grown, instead of starting one per packet; a delivery that sleeps or
// blocks holds up no other packet.
//
// The package also exposes an analytic transfer-time model
// (LinkProfile.TransferTime) used by the benchmark harness to produce
// deterministic figures independent of scheduler noise.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// NodeID names an attachment point on the simulated network. The overlay
// maps peer IDs to node IDs one-to-one.
type NodeID string

// Packet is one datagram in flight. Payload is opaque to the network.
type Packet struct {
	From    NodeID
	To      NodeID
	Payload []byte
	SentAt  time.Time
}

// Handler receives delivered packets. Handlers run on the network's
// delivery goroutines, several at once, and must be safe for concurrent
// invocation; a handler may block, even until another packet reaches
// its own node, since every packet in flight has a goroutine to itself
// for as long as its delivery lasts. The packet's Payload is the very
// buffer its sender handed to Send, and it is the handler's own: the
// sender gave it up and the network keeps no reference, so the handler
// may retain or overwrite it.
type Handler func(Packet)

// Tap observes every packet at transmission time, before loss or
// delivery — exactly what a passive eavesdropper on the wire sees. The
// attack harness uses taps to demonstrate the paper's eavesdropping
// vulnerability. A tap runs inside Send, on the sender's goroutine and
// before the packet is handed to a delivery goroutine, so it sees the
// bytes as sent; but the buffer it is shown is the one then delivered,
// which the receiving handler owns and may (the secure open path does)
// overwrite. A tap copies what it keeps.
type Tap func(Packet)

// LinkProfile describes one direction of a link.
type LinkProfile struct {
	// Latency is the fixed propagation delay.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter).
	Jitter time.Duration
	// Bandwidth is the link rate in bytes per second; 0 means infinite.
	Bandwidth int64
	// Loss is the independent drop probability in [0, 1).
	Loss float64
}

// TransferTime returns the analytic one-way time for a payload of n
// bytes: latency plus serialization time at the link rate. Jitter and
// loss are excluded so the result is deterministic.
func (p LinkProfile) TransferTime(n int) time.Duration {
	d := p.Latency
	if p.Bandwidth > 0 {
		d += time.Duration(float64(n) / float64(p.Bandwidth) * float64(time.Second))
	}
	return d
}

// Canonical profiles used across examples, tests and benches.
var (
	// ProfileLocal is instantaneous delivery (unit tests).
	ProfileLocal = LinkProfile{}
	// ProfileLAN is a modern switched 100 Mb/s LAN.
	ProfileLAN = LinkProfile{Latency: 500 * time.Microsecond, Bandwidth: 12_500_000}
	// ProfilePaperLAN approximates the paper's testbed: a 100 Mb/s LAN
	// driven by a Java-era network stack, with ~1 ms effective
	// per-message latency. Calibrated so the compute/wire balance of the
	// join experiment matches the environment the paper reports.
	ProfilePaperLAN = LinkProfile{Latency: time.Millisecond, Bandwidth: 12_500_000}
	// ProfileWAN approximates a broadband Internet path.
	ProfileWAN = LinkProfile{Latency: 40 * time.Millisecond, Jitter: 5 * time.Millisecond, Bandwidth: 1_250_000}
)

// ProfileByName resolves the profile names the command-line tools
// accept.
func ProfileByName(name string) (LinkProfile, error) {
	switch name {
	case "local":
		return ProfileLocal, nil
	case "lan":
		return ProfileLAN, nil
	case "paperlan":
		return ProfilePaperLAN, nil
	case "wan":
		return ProfileWAN, nil
	default:
		return LinkProfile{}, fmt.Errorf("simnet: unknown profile %q (local, lan, paperlan, wan)", name)
	}
}

// Errors reported by Send.
var (
	ErrClosed       = errors.New("simnet: network closed")
	ErrUnknownNode  = errors.New("simnet: unknown node")
	ErrNotAttached  = errors.New("simnet: destination not attached")
	ErrPartitioned  = errors.New("simnet: link partitioned")
	ErrNotReachable = errors.New("simnet: destination not directly reachable (NAT)")
)

// Stats are cumulative network counters.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	Bytes     uint64
}

type linkKey struct{ from, to NodeID }

// Network is the simulated fabric. The zero value is not usable; create
// networks with NewNetwork or NewNetworkSeeded.
type Network struct {
	mu       sync.RWMutex
	nodes    map[NodeID]Handler
	def      LinkProfile
	links    map[linkKey]LinkProfile
	blocked  map[linkKey]bool
	nat      map[linkKey]bool // true = NOT directly reachable
	taps     []Tap
	rngMu    sync.Mutex
	rng      *rand.Rand
	wg       sync.WaitGroup // packets in flight
	handoff  chan delivery  // unbuffered: a send succeeds only to a parked goroutine
	parked   atomic.Int32   // delivery goroutines parked on handoff, or about to be
	workers  sync.WaitGroup // delivery goroutines alive
	closed   bool
	sent     atomic.Uint64
	deliv    atomic.Uint64
	dropped  atomic.Uint64
	bytesTot atomic.Uint64
}

// NewNetwork creates a network whose default link is profile.
func NewNetwork(profile LinkProfile) *Network {
	return NewNetworkSeeded(profile, time.Now().UnixNano())
}

// NewNetworkSeeded creates a network with a deterministic jitter/loss
// random stream, for reproducible failure-injection tests.
func NewNetworkSeeded(profile LinkProfile, seed int64) *Network {
	return &Network{
		nodes:   make(map[NodeID]Handler),
		def:     profile,
		links:   make(map[linkKey]LinkProfile),
		blocked: make(map[linkKey]bool),
		nat:     make(map[linkKey]bool),
		rng:     rand.New(rand.NewSource(seed)),
		handoff: make(chan delivery),
	}
}

// Attach registers a node and its delivery handler.
func (n *Network) Attach(id NodeID, h Handler) error {
	if h == nil {
		return errors.New("simnet: nil handler")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	if _, ok := n.nodes[id]; ok {
		return fmt.Errorf("simnet: node %q already attached", id)
	}
	n.nodes[id] = h
	return nil
}

// Detach removes a node; packets in flight to it are dropped on arrival.
func (n *Network) Detach(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, id)
}

// Attached reports whether the node is currently attached.
func (n *Network) Attached(id NodeID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	_, ok := n.nodes[id]
	return ok
}

// SetLink sets the profile for both directions between a and b.
func (n *Network) SetLink(a, b NodeID, p LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey{a, b}] = p
	n.links[linkKey{b, a}] = p
}

// SetLinkOneWay sets the profile for the a→b direction only.
func (n *Network) SetLinkOneWay(a, b NodeID, p LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey{a, b}] = p
}

// Partition blocks both directions between a and b (network split).
func (n *Network) Partition(a, b NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[linkKey{a, b}] = true
	n.blocked[linkKey{b, a}] = true
}

// Heal removes a partition between a and b.
func (n *Network) Heal(a, b NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, linkKey{a, b})
	delete(n.blocked, linkKey{b, a})
}

// SetReachable marks whether from can open a direct path to to. NATed
// client peers are modeled by marking client↔client pairs unreachable;
// brokers stay reachable and relay for them, as in JXTA-Overlay.
func (n *Network) SetReachable(from, to NodeID, reachable bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if reachable {
		delete(n.nat, linkKey{from, to})
	} else {
		n.nat[linkKey{from, to}] = true
	}
}

// AddTap registers a passive wire observer.
func (n *Network) AddTap(t Tap) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.taps = append(n.taps, t)
}

// Send transmits payload from→to. It returns synchronously; delivery
// happens after the modeled wire time on a delivery goroutine: one
// parked after its previous delivery if there is one, else a new one.
// The network takes the payload as it is, without a copy: once Send
// returns nil the buffer belongs to the receiving handler, and the
// caller neither reads nor writes it again (a caller that means to send
// the same bytes twice sends a copy). A Send that fails leaves the
// buffer with its caller.
func (n *Network) Send(from, to NodeID, payload []byte) error {
	n.mu.RLock()
	if n.closed {
		n.mu.RUnlock()
		return ErrClosed
	}
	if _, ok := n.nodes[from]; !ok {
		n.mu.RUnlock()
		return fmt.Errorf("%w: %q", ErrUnknownNode, from)
	}
	if _, ok := n.nodes[to]; !ok {
		n.mu.RUnlock()
		return fmt.Errorf("%w: %q", ErrNotAttached, to)
	}
	if n.blocked[linkKey{from, to}] {
		n.mu.RUnlock()
		return fmt.Errorf("%w: %q->%q", ErrPartitioned, from, to)
	}
	if n.nat[linkKey{from, to}] {
		n.mu.RUnlock()
		return fmt.Errorf("%w: %q->%q", ErrNotReachable, from, to)
	}
	taps := n.taps
	profile, ok := n.links[linkKey{from, to}]
	if !ok {
		profile = n.def
	}
	// Register the in-flight delivery while still holding the lock so a
	// concurrent Close cannot slip between the closed check and wg.Add.
	n.wg.Add(1)
	n.mu.RUnlock()

	pkt := Packet{From: from, To: to, Payload: payload, SentAt: time.Now()}
	n.sent.Add(1)
	n.bytesTot.Add(uint64(len(payload)))
	for _, t := range taps {
		t(pkt)
	}

	if profile.Loss > 0 && n.randFloat() < profile.Loss {
		n.dropped.Add(1)
		n.wg.Done()
		return nil // loss is silent, as on a real wire
	}

	delay := profile.TransferTime(len(payload))
	if profile.Jitter > 0 {
		delay += time.Duration(n.randFloat() * float64(profile.Jitter))
	}

	d := delivery{pkt: pkt, delay: delay}
	select {
	case n.handoff <- d:
	default:
		n.workers.Add(1)
		go n.deliverLoop(d)
	}
	return nil
}

// delivery is one packet handed to a delivery goroutine: it is due
// delay after it was sent.
type delivery struct {
	pkt   Packet
	delay time.Duration
}

// maxParked is how many delivery goroutines may wait for a packet at
// once; one that finishes a delivery while that many wait exits.
const maxParked = 64

// deliverLoop delivers d, then parks on the hand-off for the next
// packet unless maxParked goroutines already wait there. A goroutine
// so keeps the stack its handlers grew, and Send starts none while one
// is parked. Close releases the parked ones by closing the hand-off.
func (n *Network) deliverLoop(d delivery) {
	defer n.workers.Done()
	for {
		n.deliver(d)
		if n.parked.Add(1) > maxParked {
			n.parked.Add(-1)
			return
		}
		var ok bool
		d, ok = <-n.handoff
		n.parked.Add(-1)
		if !ok {
			return
		}
	}
}

// deliver sleeps out the packet's wire time and hands it to its
// destination's handler.
func (n *Network) deliver(d delivery) {
	defer n.wg.Done()
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	// In-flight packets are delivered even if the network has since
	// closed: Close waits for them rather than dropping them.
	n.mu.RLock()
	h, ok := n.nodes[d.pkt.To]
	n.mu.RUnlock()
	if !ok {
		n.dropped.Add(1)
		return
	}
	n.deliv.Add(1)
	h(d.pkt)
}

func (n *Network) randFloat() float64 {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.rng.Float64()
}

// Stats returns a snapshot of the cumulative counters.
func (n *Network) Stats() Stats {
	return Stats{
		Sent:      n.sent.Load(),
		Delivered: n.deliv.Load(),
		Dropped:   n.dropped.Load(),
		Bytes:     n.bytesTot.Load(),
	}
}

// Close stops accepting sends, waits for in-flight deliveries, and
// returns once every delivery goroutine has exited.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	n.wg.Wait()
	// Every Send that passed the closed check has handed its packet
	// over, since the goroutine it went to marks it done: nothing sends
	// on the hand-off again.
	close(n.handoff)
	n.workers.Wait()
}
