package broker

// Registration hooks for the store-and-forward relay subsystem
// (internal/relay, attached by core.EnableBrokerRelay). The relay needs
// a broker-truth answer to two questions the original module never had
// to ask: "is this peer deliverable right now?" and "does this peer
// belong to that group, even though it is offline?" — a peer is a live
// member only while its session is online, but its record keeps naming
// its groups after logout, which is exactly the roster store-and-forward
// delivery needs.

import (
	"slices"

	"jxtaoverlay/internal/keys"
)

// PeerOnline reports whether a peer is logged in at this broker and
// deliverable by direct push.
func (b *Broker) PeerOnline(id keys.PeerID) bool {
	b.mu.RLock()
	p, ok := b.peers[id]
	// The PeerInfo fields must be read under the lock: the lease
	// sweeper flips Online concurrently with relay drains asking.
	online := ok && p.Online
	b.mu.RUnlock()
	return online && b.ep.Reachable(id)
}

// MemberID reports whether a peer named by a view (an entry of a relayed
// round's recipient list) belongs — online or offline — to a group in its
// current session record; the empty group (network-wide traffic) is
// every known peer's. It returns the ID string the record holds, so that
// what its caller keeps is no view.
func (b *Broker) MemberID(id []byte, group string) (keys.PeerID, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	p, ok := b.peers[keys.PeerID(id)]
	if !ok || (group != "" && !slices.Contains(p.Groups, group)) {
		return "", false
	}
	return p.ID, true
}
