package core

import (
	"bytes"
	"errors"
	"strconv"

	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/endpoint"
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
// login by the relay's shard workers. A recipient the broker holds no
// session record for is skipped: it is resident here or unknown.
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
// relay primitives when the broker refused some addressed recipients as
// unknown to it. The round still went out to everyone counted in
// direct/queued; the error exists so a shortfall is never silent.
var ErrRelaySkipped = errors.New("core: relay skipped undeliverable recipients")

// ErrRelayQuota is returned when the broker throttled the round because
// the sender (or its group) exhausted its relay queue quota. Retry
// after the queued backlog drains; the relay itself is healthy.
var ErrRelayQuota = errors.New("core: relay quota exceeded")

// RelayConfig parameterizes the broker relay: it is the queue
// configuration itself (durability, quotas — see relay.Config).
type RelayConfig = relay.Config

// EnableBrokerRelay attaches the store-and-forward relay subsystem to a
// broker: it builds the sharded queues (recovering any durable backlog
// when cfg.WAL.Dir is set), binds queue drains to the broker's presence
// events, and registers the relayRound operation.
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
	deliver := func(items []relay.Item) error {
		// The traced items share the push, and so one clock reading starts
		// each one's deliver span (none when none is traced).
		var sp trace.Span
		for i := 0; i < len(items) && sp.TraceID == 0; i++ {
			sp = trace.Begin(items[i].Trace, trace.StageDeliver)
		}
		err := pushSlices(b.Endpoint(), items)
		outcome := trace.OutcomeOK
		if err != nil {
			outcome = trace.OutcomeError
		}
		for i := range items {
			if items[i].Trace != 0 {
				sp.TraceID = items[i].Trace
				tr.End(sp, outcome)
			}
		}
		return err
	}
	r, err := relay.New(cfg, b.PeerOnline, deliver)
	if err != nil {
		return nil, err
	}
	r.BindBus(b.Bus())
	b.RegisterOp(proto.OpRelayRound, relayRoundHandler(b, r))
	return r, nil
}

// pushSlices sends items' slices, all for one recipient, in the one client
// push that carries them — the same ClientService surface advertisement
// pushes use: a record a slice, in order, in its ElemSlices element
// (proto.AppendSliceHead). A direct push is a batch of one. Each record is
// written into the frame as it is built: a slice an item names uncut (a
// direct push) is cut there, once.
func pushSlices(ep *endpoint.Service, items []relay.Item) error {
	size := 0
	for i := range items {
		n, err := proto.SliceRecordSize(items[i].Group, string(items[i].From), items[i].PayloadSize())
		if err != nil {
			return err
		}
		size += n
	}
	elems := [...]endpoint.Element{
		{Name: proto.ElemOp, Data: endpoint.ReadOnlyBytes(proto.OpSliceDeliver)},
		{Name: proto.ElemSlices},
	}
	room := endpoint.Room{Index: 1, Size: size, Fill: func(dst []byte) ([]byte, error) {
		for i := range items {
			it := &items[i]
			dst = proto.AppendSliceHead(dst, it.Group, string(it.From), it.Trace, it.PayloadSize())
			dst = it.AppendPayload(dst)
		}
		return dst, nil
	}}
	return ep.SendElements(items[0].To, proto.ClientService, "", &room, elems[:]...)
}

// relayRoundHandler processes one uploaded round: validate, slice,
// route. The response reports how many slices went out directly, were
// queued, were refused by quota, and were skipped as undeliverable.
// The sender is checked on its record alone, not asked of the fabric as a
// recipient is (PeerOnline): its frame has just arrived, and this op
// sends it nothing but the answer.
func relayRoundHandler(b *broker.Broker, r *relay.Relay) broker.OpHandler {
	return func(c broker.Caller, msg *endpoint.Message) *endpoint.Message {
		if !c.Online() {
			return proto.Fail(proto.ErrNotLoggedIn)
		}
		group, _ := msg.GetString(proto.ElemGroup)
		if !c.Member(group) {
			return proto.Fail(proto.ErrNoGroup)
		}
		// Fast-fail a sender already at its quota before paying for the
		// round parse: every queued slice would be refused anyway. The
		// refusal also counts as an admission offense: a sender hammering
		// a full queue escalates toward a SecurityAlert exactly like one
		// hammering the op rate limit.
		tr := b.Tracer()
		if r.SenderOverQuota(c.ID) {
			b.RecordOffense(c.ID, proto.OpRelayRound, proto.ErrRelayQuota, c.Trace)
			tr.End(trace.Begin(c.Trace, trace.StageEnqueue), trace.OutcomeQuota)
			return proto.Fail(proto.ErrRelayQuota)
		}
		spParse := trace.Begin(c.Trace, trace.StageParse)
		wire, ok := msg.Get(proto.ElemEnvelope)
		if !ok || len(wire) == 0 || Mode(wire[0]) != ModeGroup {
			tr.End(spParse, trace.OutcomeError)
			return proto.Fail(proto.ErrBadRound)
		}
		// The recipient list is read where it lies: each entry names a
		// peer whose ID string the broker's own table supplies.
		rcpts, _ := msg.Get(proto.ElemRecipients)
		if len(rcpts) == 0 {
			tr.End(spParse, trace.OutcomeError)
			return proto.Fail(proto.ErrBadRequest)
		}
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
		spVerify := trace.Begin(c.Trace, trace.StageVerify)
		if bytes.Count(rcpts, comma)+1 != d.Recipients() {
			spVerify.SetAttr("err", proto.ErrBadRound)
			tr.End(spVerify, trace.OutcomeError)
			return proto.Fail(proto.ErrBadRound)
		}
		tr.End(spVerify, trace.OutcomeOK)
		// Every addressed recipient lands in exactly one of the four
		// counters — direct, queued, quota or skipped — so the sender can
		// detect a shortfall instead of a silent drop. No slice is cut
		// here: each item names its slice as part i of d (which is views
		// of the upload frame), a push cuts it into the frame that carries
		// it, and the relay cuts a copy of its own only of a slice it
		// keeps — so no queued slice keeps the upload frame alive, and a
		// refused recipient costs no cut at all.
		direct, queued, quota, skipped := 0, 0, 0, 0
		spSlice := trace.Begin(c.Trace, trace.StageSlice)
		for i, rest := 0, rcpts; i < d.Recipients(); i++ {
			var raw []byte
			raw, rest, _ = bytes.Cut(rest, comma)
			id, known := b.MemberID(raw, group)
			if !known || id == c.ID {
				// No session record for this member (e.g. the broker
				// restarted and the peer never returned), or the sender
				// addressed itself.
				skipped++
				continue
			}
			switch r.Submit(relay.Item{To: id, From: c.ID, Group: group, Source: d, Part: i, Trace: c.Trace}) {
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
		if quota > 0 {
			tr.End(spSlice, trace.OutcomeQuota)
			// One offense per throttled round (not per slice): the unit
			// of sender behavior is the upload, and per-slice counting
			// would let a single wide round trip the alert threshold.
			b.RecordOffense(c.ID, proto.OpRelayRound, proto.ErrRelayQuota, c.Trace)
		} else {
			tr.End(spSlice, trace.OutcomeOK)
		}
		// The counts go in as views of their strings, which the answer's
		// frame only reads (under 100, strconv's own table: no allocation).
		return proto.OK().
			AddString(proto.ElemRelayDirect, strconv.Itoa(direct)).
			AddString(proto.ElemRelayQueued, strconv.Itoa(queued)).
			AddString(proto.ElemRelayQuota, strconv.Itoa(quota)).
			AddString(proto.ElemRelaySkipped, strconv.Itoa(skipped))
	}
}

// comma separates the entries of a relayed round's recipient list.
var comma = []byte{','}
