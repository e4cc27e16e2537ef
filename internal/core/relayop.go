package core

import (
	"errors"
	"strconv"
	"strings"
	"time"

	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/relay"
	"jxtaoverlay/internal/trace"
)

// Broker-side relay registration: the glue between the generic
// store-and-forward queues (internal/relay) and the broker's operation
// surface. A sender uploads ONE sealed ModeGroup round (relayRound);
// the broker slices it per recipient (core.SliceRound — byte surgery,
// no keys, no plaintext) and routes each slice: direct push to online
// peers, bounded TTL queue for offline ones, drained on their next
// login by the relay's shard workers. Recipients whose presence lives
// at a federation partner get their slice handed off broker-to-broker
// (fedRelaySlice) instead of refused — including queued slices whose
// recipient migrates to a partner while the slice waits.
//
// Trust model (see SECURITY.md): the broker validates session and
// group-roster facts it owns (submitter logged in, recipients known
// members) but can vouch for nothing cryptographic. Each slice carries
// the signed round header inside the shared ciphertext; the recipient's
// OpenSlice enforces the Merkle recipient binding and the single-use
// round nonce, so a compromised broker cannot read, re-target, forge or
// replay what it queues — only drop or delay it.

// ErrRelayUnavailable is returned by the client-side relay primitives
// when the broker rejects the relay operation.
var ErrRelayUnavailable = errors.New("core: broker relay unavailable")

// ErrRelaySkipped is returned (wrapped, with counts) by the client-side
// relay primitives when the broker refused some addressed recipients —
// unknown to it, or whose federation hand-off failed. The round still
// went out to everyone counted in direct/queued/handoff; the error
// exists so a shortfall is never silent.
var ErrRelaySkipped = errors.New("core: relay skipped undeliverable recipients")

// ErrRelayQuota is returned when the broker throttled the round because
// the sender (or its group) exhausted its relay queue quota. Retry
// after the queued backlog drains; the relay itself is healthy.
var ErrRelayQuota = errors.New("core: relay quota exceeded")

// RelayConfig parameterizes the broker relay. It embeds the queue
// configuration (durability, quotas, TTL — see relay.Config).
type RelayConfig struct {
	relay.Config
}

// EnableBrokerRelay attaches the store-and-forward relay subsystem to a
// broker: it builds the sharded queues (recovering any durable backlog
// when cfg.WAL.Dir is set), binds queue drains to the broker's presence
// events, and registers the relayRound and fedRelaySlice operations.
// Close() the returned relay when the broker shuts down.
func EnableBrokerRelay(b *broker.Broker, cfg RelayConfig) (*relay.Relay, error) {
	if cfg.Tracer == nil {
		// Inherit the broker's recorder so one SetTracer call covers the
		// whole broker-side lifecycle.
		cfg.Tracer = b.Tracer()
	}
	if cfg.Auditor == nil {
		// Same inheritance for the audit journal: SetAuditor before
		// EnableBrokerRelay and the relay's drops and WAL faults land in
		// the broker's tamper-evident log.
		cfg.Auditor = b.Auditor()
	}
	if cfg.Clock == nil {
		// And for time: the relay expires what it queues by its broker's
		// clock, so the two cannot disagree about a TTL.
		cfg.Clock = b.Now
	}
	tr := cfg.Tracer
	var r *relay.Relay
	deliver := func(it relay.Item) error {
		// Presence migrated to a federation partner? Chase the slice
		// there instead of failing the drain — the partner's own relay
		// delivers it (or queues it under the partner's TTL). Forwarded
		// items never re-forward: one hop, no mesh loops.
		if !it.Forwarded {
			if origin := b.PeerOrigin(it.To); origin != "" {
				var sp trace.Span
				if it.Trace != 0 && tr != nil {
					sp = trace.Begin(it.Trace, trace.StageHandoff)
				}
				if err := b.Endpoint().Send(origin, proto.BrokerService, fedSliceMessage(it)); err != nil {
					tr.End(sp, trace.OutcomeError)
					return err
				}
				tr.End(sp, trace.OutcomeOK)
				r.AddHandoff()
				return nil
			}
		}
		var sp trace.Span
		if it.Trace != 0 && tr != nil {
			sp = trace.Begin(it.Trace, trace.StageDeliver)
		}
		err := b.Endpoint().Send(it.To, proto.ClientService, sliceDeliverMessage(it))
		if err != nil {
			tr.End(sp, trace.OutcomeError)
		} else {
			tr.End(sp, trace.OutcomeOK)
		}
		return err
	}
	r, err := relay.New(cfg.Config, b.PeerOnline, deliver)
	if err != nil {
		return nil, err
	}
	r.BindBus(b.Bus())
	b.RegisterOp(proto.OpRelayRound, relayRoundHandler(b, r))
	b.RegisterOp(proto.OpFedRelaySlice, fedRelaySliceHandler(b, r))
	return r, nil
}

// sliceDeliverMessage wraps one slice into the client push that carries
// it — the same ClientService surface advertisement pushes use.
func sliceDeliverMessage(it relay.Item) *endpoint.Message {
	msg := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpSliceDeliver).
		AddString(proto.ElemGroup, it.Group).
		AddString(proto.ElemPeer, string(it.From)).
		Add(proto.ElemEnvelope, it.Payload)
	if it.Trace != 0 {
		msg.AddString(proto.ElemTrace, trace.FormatID(it.Trace))
	}
	return msg
}

// fedSliceMessage wraps one slice into the broker-to-broker hand-off.
// The original expiry travels with it: a slice must not gain lifetime
// by hopping brokers.
func fedSliceMessage(it relay.Item) *endpoint.Message {
	msg := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpFedRelaySlice).
		AddString(proto.ElemRelayTo, string(it.To)).
		AddString(proto.ElemPeer, string(it.From)).
		AddString(proto.ElemGroup, it.Group).
		AddString(proto.ElemRelayExp, strconv.FormatInt(it.Expires.UnixNano(), 10)).
		Add(proto.ElemEnvelope, it.Payload)
	if it.Trace != 0 {
		msg.AddString(proto.ElemTrace, trace.FormatID(it.Trace))
	}
	return msg
}

// fedRelaySliceHandler accepts a slice handed off by a federation
// partner and routes it through the local relay as a one-hop Forwarded
// item: direct push if the recipient is logged in here, local queue
// otherwise. Non-partners are ignored outright, mirroring the other
// federation handlers.
func fedRelaySliceHandler(b *broker.Broker, r *relay.Relay) broker.OpHandler {
	return func(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
		if !b.IsPartner(from) {
			return nil
		}
		to, _ := msg.GetString(proto.ElemRelayTo)
		sender, _ := msg.GetString(proto.ElemPeer)
		group, _ := msg.GetString(proto.ElemGroup)
		payload, ok := msg.Get(proto.ElemEnvelope)
		if to == "" || !ok {
			return nil
		}
		// payload is a view of the partner's frame, and a queued item
		// holds it until delivery or expiry: the frame is the slice plus
		// its addressing, so nothing larger than the item is pinned.
		it := relay.Item{
			To: keys.PeerID(to), From: keys.PeerID(sender),
			Group: group, Payload: payload, Forwarded: true,
		}
		if idStr, _ := msg.GetString(proto.ElemTrace); idStr != "" {
			it.Trace = trace.ParseID(idStr)
		}
		if expStr, _ := msg.GetString(proto.ElemRelayExp); expStr != "" {
			if ns, err := strconv.ParseInt(expStr, 10, 64); err == nil {
				it.Expires = time.Unix(0, ns)
			}
		}
		r.Submit(it)
		// Hand-off is one-way, like every federation push: the origin
		// broker already acked (or acked-and-logged) the slice to its
		// sender, and failure here is indistinguishable from the
		// recipient logging out mid-flight — the local TTL queue and
		// the sender's end-to-end round receipt are the safety nets.
		return nil
	}
}

// relayRoundHandler processes one uploaded round: validate, slice,
// route. The response reports how many slices went out directly, were
// queued, were handed off to federation partners, were refused by
// quota, and were skipped as undeliverable.
func relayRoundHandler(b *broker.Broker, r *relay.Relay) broker.OpHandler {
	return func(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
		if !b.PeerOnline(from) {
			return proto.Fail(proto.ErrNotLoggedIn)
		}
		group, _ := msg.GetString(proto.ElemGroup)
		if !b.KnownMember(from, group) {
			return proto.Fail(proto.ErrNoGroup)
		}
		// Fast-fail a sender already at its quota before paying for the
		// round parse: every queued slice would be refused anyway. The
		// refusal also counts as an admission offense: a sender hammering
		// a full queue escalates toward a SecurityAlert exactly like one
		// hammering the op rate limit.
		tid := b.TraceID(msg)
		tr := b.Tracer()
		if r.SenderOverQuota(from) {
			b.RecordOffense(from, proto.OpRelayRound, proto.ErrRelayQuota, tid)
			if tid != 0 {
				sp := trace.Begin(tid, trace.StageEnqueue)
				tr.End(sp, trace.OutcomeQuota)
			}
			return proto.Fail(proto.ErrRelayQuota)
		}
		var spParse trace.Span
		if tid != 0 {
			spParse = trace.Begin(tid, trace.StageParse)
		}
		wire, ok := msg.Get(proto.ElemEnvelope)
		if !ok || len(wire) == 0 || Mode(wire[0]) != ModeGroup {
			tr.End(spParse, trace.OutcomeError)
			return proto.Fail(proto.ErrBadRound)
		}
		rcptCSV, _ := msg.GetString(proto.ElemRecipients)
		if rcptCSV == "" {
			tr.End(spParse, trace.OutcomeError)
			return proto.Fail(proto.ErrBadRequest)
		}
		ids := strings.Split(rcptCSV, ",")
		d, err := SliceRound(wire)
		if err != nil {
			tr.End(spParse, trace.OutcomeError)
			return proto.Fail(proto.ErrBadRound)
		}
		tr.End(spParse, trace.OutcomeOK)
		// The recipient list must pair 1:1 with the round's key wraps —
		// the broker cannot check WHICH fingerprint belongs to which peer
		// (it holds no keys), but a mismapped slice is merely
		// undeliverable: the wrong recipient fails ErrNotRecipient and the
		// signed Merkle binding stops anything stronger.
		var spVerify trace.Span
		if tid != 0 {
			spVerify = trace.Begin(tid, trace.StageVerify)
		}
		if len(ids) != d.Recipients() {
			if tid != 0 {
				spVerify.SetAttr("err", proto.ErrBadRound)
				tr.End(spVerify, trace.OutcomeError)
			}
			return proto.Fail(proto.ErrBadRound)
		}
		tr.End(spVerify, trace.OutcomeOK)
		// Every addressed recipient lands in exactly one of the five
		// counters — direct, queued, handoff, quota or skipped — so the
		// sender can detect a shortfall instead of a silent drop. Slices
		// are cut lazily: only accepted recipients pay for their copy of
		// the ciphertext — a copy, so no queued slice keeps the upload
		// frame (which d is views of) alive.
		direct, queued, handoff, quota, skipped := 0, 0, 0, 0, 0
		// One reading a round: what is handed off expires together.
		handoffExpires := b.Now().Add(r.TTL())
		var spSlice trace.Span
		if tid != 0 {
			spSlice = trace.Begin(tid, trace.StageSlice)
		}
		for i, raw := range ids {
			id := keys.PeerID(raw)
			if !b.KnownMember(id, group) || id == from {
				// No session record for this member (e.g. the broker
				// restarted and the peer never returned), or the sender
				// addressed itself.
				skipped++
				continue
			}
			if !b.PeerResident(id) {
				// The member is logged in at (or last seen through) a
				// federation partner: its presence events fire there, so
				// hand the slice to the broker that owns it. The item is
				// stamped with the local TTL so a hop cannot extend its
				// life past what a local queue would have allowed.
				it := relay.Item{
					To: id, From: from, Group: group, Payload: d.Slice(i),
					Expires: handoffExpires, Trace: tid,
				}
				if b.Endpoint().Send(b.PeerOrigin(id), proto.BrokerService, fedSliceMessage(it)) != nil {
					skipped++
					continue
				}
				r.AddHandoff()
				handoff++
				continue
			}
			switch r.Submit(relay.Item{To: id, From: from, Group: group, Payload: d.Slice(i), Trace: tid}) {
			case relay.SubmitDirect:
				direct++
			case relay.SubmitQueued:
				queued++
			case relay.SubmitDroppedQuota:
				// The sender crossed its quota mid-round (or the group
				// did). Already-routed slices stand; the rest of the
				// round is counted so the sender sees exactly how far it
				// got.
				quota++
			case relay.SubmitDropped:
				// The relay shut down mid-round; nothing already counted is
				// lost, but the remaining slices cannot be accepted — fail
				// so the sender does not trust the queued count.
				return proto.Fail(proto.ErrRelayOff)
			}
		}
		if tid != 0 {
			if quota > 0 {
				tr.End(spSlice, trace.OutcomeQuota)
			} else {
				tr.End(spSlice, trace.OutcomeOK)
			}
		}
		if quota > 0 {
			// One offense per throttled round (not per slice): the unit
			// of sender behavior is the upload, and per-slice counting
			// would let a single wide round trip the alert threshold.
			b.RecordOffense(from, proto.OpRelayRound, proto.ErrRelayQuota, tid)
		}
		return proto.OK().
			AddString(proto.ElemRelayDirect, strconv.Itoa(direct)).
			AddString(proto.ElemRelayQueued, strconv.Itoa(queued)).
			AddString(proto.ElemRelayHandoff, strconv.Itoa(handoff)).
			AddString(proto.ElemRelayQuota, strconv.Itoa(quota)).
			AddString(proto.ElemRelaySkipped, strconv.Itoa(skipped))
	}
}
