package broker

// Registration hooks for the store-and-forward relay subsystem
// (internal/relay, attached by core.EnableBrokerRelay). The relay needs
// a broker-truth answer to two questions the original module never had
// to ask: "is this peer deliverable right now?" and "does this peer
// belong to that group, even though it is offline?" — offline peers
// leave the live group registry at logout, but their session record
// (PeerInfo) survives, which is exactly the roster store-and-forward
// delivery needs.

import (
	"slices"
	"sort"

	"jxtaoverlay/internal/keys"
)

// PeerOnline reports whether a peer is logged in at THIS broker and
// deliverable by direct push. Peers logged into federation partners are
// reported offline here: their own broker owns their presence, and the
// relay treats them as queueable.
func (b *Broker) PeerOnline(id keys.PeerID) bool {
	b.mu.RLock()
	p, ok := b.peers[id]
	// The PeerInfo fields must be read under the lock: the lease
	// sweeper flips Online concurrently with relay drains asking.
	online := ok && p.Online && p.Local()
	b.mu.RUnlock()
	return online && b.ep.Reachable(id)
}

// PeerResident reports whether a peer's presence is owned by THIS
// broker: its session record is local, not learned through federation.
// Only resident peers can ever be served from this broker's relay
// queues — a partner-resident peer logs in (and emits the presence
// event that drains a queue) at its own broker, so queueing for it
// here could only end in TTL expiry.
func (b *Broker) PeerResident(id keys.PeerID) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	p, ok := b.peers[id]
	return ok && p.Local()
}

// PeerOrigin reports which federation partner owns a peer's presence:
// the broker the peer was learned from, or "" for local (resident)
// peers and peers with no session record. The relay's delivery hook
// uses it to chase a queued slice to the partner broker the recipient
// migrated to, instead of letting the slice expire here.
func (b *Broker) PeerOrigin(id keys.PeerID) keys.PeerID {
	b.mu.RLock()
	defer b.mu.RUnlock()
	p, ok := b.peers[id]
	if !ok {
		return ""
	}
	return p.Origin
}

// KnownMember reports whether a peer — online or offline — belongs to a
// group in its current session record. The empty group (network-wide
// traffic) is open to every known peer, mirroring memberOf.
func (b *Broker) KnownMember(id keys.PeerID, group string) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	p, ok := b.peers[id]
	if !ok {
		return false
	}
	// Groups is mutated in place by join/leave, so it must be read
	// while still holding the lock.
	return group == "" || slices.Contains(p.Groups, group)
}

// KnownPeers lists every peer the broker has a session record for —
// online or offline — filtered to one group (all peers when group is
// empty), sorted by peer ID. This is the store-and-forward roster: the
// set of peers a relayed round may address.
func (b *Broker) KnownPeers(group string) []PeerInfo {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []PeerInfo
	for _, p := range b.peers {
		if group != "" && !slices.Contains(p.Groups, group) {
			continue
		}
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
