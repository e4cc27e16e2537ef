package broker

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"time"

	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/xmldoc"
)

// Brokers "exchange information about all client peers, maintaining a
// global index of available resources" (paper §2.1). This file
// implements that exchange: federated brokers push peer arrivals,
// departures and published advertisements to each other, so a client
// logged into broker A can discover and message a client logged into
// broker B.
//
// Loop prevention is structural: federation messages are never
// re-forwarded, and local propagation only reaches locally registered
// peers, so every update crosses the broker mesh exactly once per link.

// Federation operations (broker → broker).
const (
	opFedPeerUp   = "fedPeerUp"
	opFedPeerDown = "fedPeerDown"
	opFedAdv      = "fedAdv"
)

// Federate connects this broker to peer brokers. Call it on both sides
// (or all pairs of a full mesh). Existing local peers are announced to
// the new partners immediately.
func (b *Broker) Federate(partners ...keys.PeerID) {
	b.mu.Lock()
	for _, p := range partners {
		if p != b.cfg.PeerID && !slices.Contains(b.federation, p) {
			b.federation = append(b.federation, p)
		}
	}
	local := make([]PeerInfo, 0, len(b.peers))
	for _, s := range b.peers {
		if s.Online && s.Local() {
			local = append(local, s.PeerInfo)
		}
	}
	b.mu.Unlock()
	for i := range local {
		b.fedBroadcast(peerUpMessage(&local[i]))
	}
}

// FederationPartners lists the connected brokers.
func (b *Broker) FederationPartners() []keys.PeerID {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return append([]keys.PeerID(nil), b.federation...)
}

// fedBroadcast pushes a federation message to every partner.
func (b *Broker) fedBroadcast(msg *endpoint.Message) {
	b.mu.RLock()
	partners := append([]keys.PeerID(nil), b.federation...)
	b.mu.RUnlock()
	for _, p := range partners {
		_ = b.ep.Send(p, proto.BrokerService, msg)
	}
}

// IsPartner reports whether the sender is a registered federation peer.
// In the original middleware nothing authenticates this (consistent
// with its threat model); the security extension's advertisement
// verifier still applies to federated advertisement payloads. Exported
// for the relay hand-off handler (core), which must refuse forwarded
// slices from non-partners.
func (b *Broker) IsPartner(id keys.PeerID) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return slices.Contains(b.federation, id)
}

func peerUpMessage(info *PeerInfo) *endpoint.Message {
	return endpoint.NewMessage().
		AddString(proto.ElemOp, opFedPeerUp).
		AddString(proto.ElemPeer, string(info.ID)).
		AddString(proto.ElemUser, info.Username).
		AddString(proto.ElemGroups, strings.Join(info.Groups, ",")).
		AddString(proto.ElemFedSession, strconv.FormatInt(info.ConnectedAt.UnixNano(), 10))
}

// fedSession extracts the session start time a federation presence
// update describes. Broker-to-broker delivery is unordered, so the
// receiver compares it against the session it already has on record
// and discards updates an intervening (re-)login made stale — without
// this, a slow peer-up from a recipient's previous session can clobber
// its live local registration and misroute relay traffic. A message
// without the element (never produced here) falls back to this broker's
// "now", the pre-timestamp behavior.
func (b *Broker) fedSession(msg *endpoint.Message) time.Time {
	if s, _ := msg.GetString(proto.ElemFedSession); s != "" {
		if ns, err := strconv.ParseInt(s, 10, 64); err == nil {
			return time.Unix(0, ns)
		}
	}
	return b.Now()
}

func (b *Broker) registerFederationOps() {
	b.ops[opFedPeerUp] = opEntry{h: b.handleFedPeerUp}
	b.ops[opFedPeerDown] = opEntry{h: b.handleFedPeerDown}
	b.ops[opFedAdv] = opEntry{h: b.handleFedAdv}
}

func (b *Broker) handleFedPeerUp(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	if !b.IsPartner(from) {
		return nil
	}
	peer, _ := msg.GetString(proto.ElemPeer)
	user, _ := msg.GetString(proto.ElemUser)
	groupsCSV, _ := msg.GetString(proto.ElemGroups)
	var groups []string
	if groupsCSV != "" {
		groups = strings.Split(groupsCSV, ",")
	}
	b.registerPeerAt(keys.PeerID(peer), user, groups, from, b.fedSession(msg), Lease{})
	return nil
}

func (b *Broker) handleFedPeerDown(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	if !b.IsPartner(from) {
		return nil
	}
	peer, _ := msg.GetString(proto.ElemPeer)
	b.unregister(keys.PeerID(peer), true, b.fedSession(msg))
	return nil
}

func (b *Broker) handleFedAdv(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	if !b.IsPartner(from) {
		return nil
	}
	raw, ok := msg.Get(proto.ElemAdv)
	if !ok {
		return nil
	}
	// Parsed from a copy, as in handlePublishAdv: the cache outlives the frame.
	doc, err := xmldoc.ParseCanonical(bytes.Clone(raw))
	if err != nil {
		return nil
	}
	// Same single-parse discipline as handlePublishAdv: the verifier's
	// parsed advertisement is reused for the cache and propagation.
	adv, errTok := b.verifyAndParse(doc)
	if errTok != "" {
		return nil
	}
	src, _ := msg.GetString(proto.ElemPeer)
	// Propagate to local members only, by the publish path's rule; never
	// re-forward (loop guard).
	group := advGroup(adv)
	var push *endpoint.Message
	if group != "" {
		push = b.advPushFor(doc, adv)
	}
	if err := b.ctl.Cache().PutParsed(doc, adv); err != nil {
		return nil
	}
	b.fedAdvsAccepted.Add(1)
	if push != nil {
		b.pushLocal(push, group, keys.PeerID(src))
	}
	return nil
}

// forwardAdvToFederation ships a freshly published advertisement to the
// partner brokers.
func (b *Broker) forwardAdvToFederation(doc *xmldoc.Element, source keys.PeerID) {
	msg := endpoint.NewMessage().
		AddString(proto.ElemOp, opFedAdv).
		AddString(proto.ElemPeer, string(source)).
		Add(proto.ElemAdv, doc.Canonical())
	b.fedBroadcast(msg)
}
