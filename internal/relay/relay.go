// Package relay implements the broker-side store-and-forward delivery
// subsystem: per-recipient wires (round slices cut by the broker from
// one uploaded ModeGroup round) are delivered immediately to online
// peers and queued — in bounded, TTL-expiring, per-peer FIFO queues —
// for offline ones, then drained by sharded delivery workers when the
// peer's presence comes back (login events on the events.Bus). A relay
// serves one broker: every item is for a peer resident at it, whose
// login there drains the queue.
// Each shard's worker drains from one schedule of peers, each due now (a
// Flush) or after a RetryBackoff delay (a delivery failed against a peer
// still online); nothing else drains, and nothing after Close.
//
// Queues are durable when Config.WAL.Dir is set: every enqueue,
// delivery, expiry and drop is written behind the in-memory state to an
// append-only, CRC-checked log (internal/relay/wal), and a restarted
// relay replays the log to rebuild its queues — re-enforcing TTL on
// every recovered item and never resurrecting one whose delivery,
// expiry or drop was already logged. Per-sender and per-group quotas
// bound how much of the shared store one chatty sender (or one noisy
// group) may occupy, so the per-peer drop-oldest policy cannot be
// weaponized to evict everyone else's traffic.
//
// The relay is deliberately ignorant of cryptography: payloads are
// opaque bytes. Everything that makes a queued slice safe to hold at an
// untrusted intermediary — the signed recipient binding, the body
// digest, the single-use round nonce — lives inside the payload and is
// enforced by the recipient (core.OpenSlice). A compromised relay can
// drop or delay traffic; it cannot read, re-target or replay it (see
// SECURITY.md, "Store-and-forward trust model").
package relay

import (
	"hash/fnv"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/backoff"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/relay/wal"
	"jxtaoverlay/internal/trace"
)

// Item is one undelivered payload addressed to one recipient.
type Item struct {
	// To is the recipient peer.
	To keys.PeerID
	// From is the originating peer (diagnostics and quota accounting;
	// the authenticated sender is inside the payload).
	From keys.PeerID
	// Group is the overlay group the payload belongs to.
	Group string
	// Payload is the wire to hand to the recipient, opaque to the relay.
	// It is nil while Source names the payload instead.
	Payload []byte
	// Source, when set, holds the payload uncut: it is part Part of
	// Source. A broker names a round's slice this way so that a direct
	// push cuts it once, into the frame that carries it (AppendPayload).
	// The relay reads a source only inside Submit, on the submitter's
	// goroutine: an item it keeps — queued, after a failed direct
	// delivery too — has its part cut into a Payload of its own first,
	// so nothing queued holds the source.
	Source Parts
	Part   int
	// Trace is the message-lifecycle trace ID the item belongs to
	// (0 = untraced). It rides in memory only — the WAL record format
	// does not carry it, so recovered items come back untraced.
	Trace uint64

	// expires is when the item stops being deliverable: its submission
	// time plus itemTTL, or the logged deadline of a recovered item.
	expires time.Time
	// seq is the item's WAL sequence number (0 = not persisted).
	seq wal.Seq
	// enqueuedAt stamps when the item entered its offline queue, so a
	// later flush can attribute the queue-wait stage to its trace.
	enqueuedAt time.Time
}

// Parts is a payload source an Item names part of without cutting it.
// *core.DetachedRound is one: part i is recipient i's slice.
type Parts interface {
	// PartSize is the length of part i.
	PartSize(i int) int
	// AppendPart appends part i to dst, as append does.
	AppendPart(dst []byte, i int) []byte
}

// PayloadSize is the length of the item's payload, cut or named.
func (it *Item) PayloadSize() int {
	if it.Source != nil {
		return it.Source.PartSize(it.Part)
	}
	return len(it.Payload)
}

// AppendPayload appends the item's payload to dst, as append does.
func (it *Item) AppendPayload(dst []byte) []byte {
	if it.Source != nil {
		return it.Source.AppendPart(dst, it.Part)
	}
	return append(dst, it.Payload...)
}

// own cuts a payload Source names into a Payload of the item's own.
func (it *Item) own() {
	if it.Source != nil {
		it.Payload = it.AppendPayload(make([]byte, 0, it.PayloadSize()))
		it.Source = nil
	}
}

// DeliverFunc hands items to their one recipient in one send, in the order
// of its queue: the item Submit pushes directly, or the batch a drain takes
// from the front of the queue (at most drainBatch items and drainBytes of
// payload, or one item of more). A non-nil error means none was delivered;
// the relay keeps (or re-queues) them all until their TTLs run out. The
// items are read there and then — a named payload too (PayloadSize,
// AppendPayload) — and neither they nor the slice are kept.
type DeliverFunc = func(items []Item) error

// OnlineFunc reports whether a peer is currently reachable for direct
// delivery.
type OnlineFunc func(id keys.PeerID) bool

// Config parameterizes a Relay.
type Config struct {
	// QueueCap bounds each peer's offline queue. On overflow the OLDEST
	// item is dropped (and counted) — newer traffic is the traffic a
	// returning peer still cares about. 0 = 64.
	QueueCap int
	// SenderQuota bounds how many items one SENDER may have queued
	// across all recipients (0 = unlimited). Submissions over quota are
	// refused with SubmitDroppedQuota instead of evicting other
	// senders' traffic.
	SenderQuota int
	// GroupQuota bounds how many items one GROUP may have queued across
	// all recipients (0 = unlimited).
	GroupQuota int
	// WAL configures the durable queue log. WAL.Dir == "" runs the
	// relay in-memory (queues die with the process). The relay owns the
	// log: it opens it in New (replaying any previous state) and closes
	// it in Close.
	WAL wal.Options
	// Tracer records lifecycle spans for traced items (nil = off): the
	// enqueue stage, WAL append and fsync attribution, and queue-wait
	// dwell time. Untraced items (Item.Trace == 0) cost nothing.
	Tracer *trace.Recorder
	// Auditor receives a tamper-evident audit record for every
	// security-relevant relay decision — quota refusals, overflow drops
	// and WAL write failures (nil = off). Ordinary deliveries are not
	// audited: the audit log records refusals and faults, not traffic.
	Auditor *audit.Journal
	// Clock is what TTLs are stamped and expired by, fixed at construction:
	// the wall when nil — core.EnableBrokerRelay fills a nil one with its
	// broker's clock, so that the two agree about every expiry.
	Clock func() time.Time
}

const (
	// itemTTL is how long a queued item stays deliverable. It must not
	// exceed the recipients' replay-guard freshness window: an item
	// held longer would be rejected as stale on delivery anyway.
	itemTTL = 2 * time.Minute
	// shardCount is the number of queue shards, each with one delivery
	// worker. Peers hash onto shards, so flushes for different peers
	// proceed in parallel while one peer's queue always drains in order
	// from a single worker.
	shardCount = 8
	// drainBatch and drainBytes bound the batch a drain hands the deliverer
	// in one call: its items, and their payload bytes unless the first
	// item alone is more. The broker pushes a batch as one frame. Measured
	// on cmd/perf's offline-drain, where a drain is 40 slices of ≈ 1.6 KB,
	// one frame for the whole drain allocated no more than frames kept
	// inside the allocator's 32 KiB size class; the byte budget bounds the
	// frame when slices are large.
	drainBatch = 64
	drainBytes = 256 << 10
)

// RetryBackoff spaces, on the wall clock, the re-drains a shard schedules
// after delivery failures against a still-online peer: capped exponential
// with full jitter, on an attempt count the peer's queue keeps and a drain
// that delivers resets. A fixed spacing re-synchronizes every stuck peer's
// retries; the jitter spreads them out. The first re-drain comes within a
// quarter second; a persistently failing peer's retries stretch to 5s.
var RetryBackoff = backoff.Policy{Base: 250 * time.Millisecond, Cap: 5 * time.Second}

// Metrics is a snapshot of the relay's counters.
type Metrics struct {
	// DeliveredDirect counts items handed to online recipients without
	// queueing.
	DeliveredDirect uint64
	// DeliveredFlushed counts queued items delivered by a flush.
	DeliveredFlushed uint64
	// Enqueued counts items that entered an offline queue.
	Enqueued uint64
	// DroppedOverflow counts oldest-items dropped by full queues.
	DroppedOverflow uint64
	// DroppedQuota counts submissions refused because the sender or
	// group was over its queue quota — isolation, not overflow.
	DroppedQuota uint64
	// Expired counts items whose TTL ran out before delivery.
	Expired uint64
	// DeliverErrors counts failed delivery attempts (the item is kept).
	DeliverErrors uint64
	// WALErrors counts queue mutations the WAL failed to log (the
	// in-memory queue keeps working; durability degrades).
	WALErrors uint64
	// RecoveryReplayed counts items rebuilt into queues at startup.
	RecoveryReplayed uint64
	// RecoveryDiscardedTTL counts logged items discarded at startup
	// because their TTL had already run out.
	RecoveryDiscardedTTL uint64
	// RecoveryDiscardedGuard counts logged items discarded at startup
	// because a delivery/expiry/drop ack was also logged — the
	// no-resurrection guard.
	RecoveryDiscardedGuard uint64
}

// Relay is the store-and-forward subsystem of one broker.
type Relay struct {
	cfg     Config
	deliver DeliverFunc
	online  OnlineFunc
	// batch is the most items one deliver call takes: drainBatch, or 1 for
	// a deliverer of one item.
	batch int

	shards []*shard
	wg     sync.WaitGroup
	stop   chan struct{}
	closed atomic.Bool

	log *wal.Log // nil when running in-memory

	// Cross-queue quota occupancy, by sender and by group.
	quotaMu  sync.Mutex
	bySender map[keys.PeerID]int
	byGroup  map[string]int

	bus       *events.Bus // optional, set by BindBus; emits RelayFlushed
	busCancel func()      // unsubscribes from the bus; called by Close

	// Traced items staged behind the next WAL fsync; the OnSync hook
	// drains it to attribute the fsync's duration to each trace.
	fsyncMu      sync.Mutex
	fsyncPending []uint64

	deliveredDirect  atomic.Uint64
	deliveredFlushed atomic.Uint64
	enqueued         atomic.Uint64
	droppedOverflow  atomic.Uint64
	droppedQuota     atomic.Uint64
	expired          atomic.Uint64
	deliverErrors    atomic.Uint64
	walErrors        atomic.Uint64

	recoveryReplayed       uint64
	recoveryDiscardedTTL   uint64
	recoveryDiscardedGuard uint64
}

type shard struct {
	r      *Relay
	mu     sync.Mutex
	queues map[keys.PeerID]queue
	// sched is the drain schedule: each peer the worker must drain, with
	// the wall-clock instant it may start (zero: now).
	sched map[keys.PeerID]time.Time
	// wake nudges the worker; its one slot stands for any number.
	wake chan struct{}
	// batch is the drain's batch, taken from a queue's front; only the
	// worker touches it, and it keeps no item between two takes.
	batch []Item
}

// queue is one peer's FIFO. Enqueue appends, a drain pops the front and
// overflow drops from it, each in constant time whatever the length.
type queue struct {
	items []Item
	// due is at or before the earliest expiry among items: until the
	// clock passes it nothing queued has expired, and a prune reads
	// nothing. A pop leaves it a bound; a prune makes it exact.
	due time.Time
	// attempts counts the drains that failed against the peer online
	// since one delivered: the rung of RetryBackoff its retry waits on.
	attempts int
}

// bound keeps q's due at or before expires, an item's joining q.
func (q *queue) bound(expires time.Time) {
	if q.due.IsZero() || expires.Before(q.due) {
		q.due = expires
	}
}

// New starts a relay. online gates direct delivery; deliver performs
// it, a DeliverFunc or a func(Item) error, which is handed one item a
// call (its drains are batches of one). Both must be safe for concurrent
// use. With Config.WAL.Dir set the previous process's queue log is
// replayed first: un-acked items re-enter their queues (TTL re-checked,
// acked items never resurrected) and the error reports an unreadable or
// unreplayable log.
func New[D DeliverFunc | func(Item) error](cfg Config, online OnlineFunc, deliver D) (*Relay, error) {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	r := &Relay{
		cfg:      cfg,
		online:   online,
		batch:    drainBatch,
		stop:     make(chan struct{}),
		bySender: make(map[keys.PeerID]int),
		byGroup:  make(map[string]int),
	}
	switch d := any(deliver).(type) {
	case DeliverFunc:
		r.deliver = d
	case func(Item) error:
		r.deliver = func(items []Item) error { return d(items[0]) }
		r.batch = 1
	}
	r.shards = make([]*shard, shardCount)
	for i := range r.shards {
		r.shards[i] = &shard{r: r, queues: make(map[keys.PeerID]queue), sched: make(map[keys.PeerID]time.Time), wake: make(chan struct{}, 1)}
	}
	if cfg.Tracer != nil && cfg.WAL.Dir != "" {
		// Attribute each successful fsync to the traced items staged
		// behind it (the hook fires from wal with log locks held; it
		// only touches the recorder and the pending list).
		r.cfg.WAL.OnSync = r.onWALSync
	}
	if cfg.WAL.Dir != "" {
		if err := r.recover(); err != nil {
			return nil, err
		}
	}
	for _, s := range r.shards {
		r.wg.Add(1)
		go s.work(time.NewTimer(time.Hour))
	}
	return r, nil
}

// recover opens the WAL and rebuilds the queues from its live records.
// Replay re-runs the admission checks a live submission would face:
// items whose TTL passed while the broker was down are discarded (and
// acked so compaction reclaims them), caps and quotas are re-enforced,
// and — inside wal.Open — items with a logged delivery/expiry/drop
// never come back at all.
func (r *Relay) recover() error {
	log, recovered, stats, err := wal.Open(r.cfg.WAL)
	if err != nil {
		return err
	}
	r.log = log
	r.recoveryDiscardedGuard = uint64(stats.Acked)
	now := r.cfg.Clock()
	for _, rec := range recovered {
		if now.After(rec.Expires) {
			r.recoveryDiscardedTTL++
			r.expired.Add(1)
			r.ack(rec.Seq, wal.AckExpired, rec.To)
			continue
		}
		it := Item{
			To: rec.To, From: rec.From, Group: rec.Group,
			Payload: rec.Payload, expires: rec.Expires, seq: rec.Seq,
		}
		if !r.reserveQuota(it) {
			r.droppedQuota.Add(1)
			r.audit(audit.Event{Kind: audit.KindRelayDrop, Peer: string(it.From), Op: "relay-recover", Reason: "quota"})
			r.ack(rec.Seq, wal.AckDropped, rec.To)
			continue
		}
		// Workers are not running yet, so enqueue touches shards
		// unobserved; cap overflow acks through the usual path.
		r.shardOf(it.To).enqueue(it)
		r.recoveryReplayed++
	}
	return nil
}

// BindBus subscribes the relay to presence events so a peer's queue is
// drained the moment it logs (back) in, and lets the relay announce
// completed drains as events.RelayFlushed. It returns the unsubscribe
// function; Close also unsubscribes, so a bus-bound relay does not
// outlive its shutdown as a dead subscriber.
func (r *Relay) BindBus(bus *events.Bus) (cancel func()) {
	r.bus = bus
	cancel = bus.Subscribe(events.PresenceUpdate, func(e events.Event) {
		if e.Attr("status") == advert.StatusOnline {
			r.Flush(e.From)
		}
	})
	r.busCancel = cancel
	return cancel
}

func (r *Relay) shardOf(id keys.PeerID) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return r.shards[int(h.Sum32())%len(r.shards)]
}

// SubmitResult reports the disposition of one submitted item.
type SubmitResult int

const (
	// SubmitDropped means the relay is closed and the item was
	// discarded — it was neither delivered nor stored.
	SubmitDropped SubmitResult = iota
	// SubmitDirect means the item was handed to its online recipient
	// immediately.
	SubmitDirect
	// SubmitQueued means the item was stored for delivery at the
	// recipient's next login (or its scheduled retry).
	SubmitQueued
	// SubmitDroppedQuota means the item was refused because its sender
	// or group is over its queue quota. Distinct from SubmitDropped so
	// the broker can tell the sender "you are throttled" rather than
	// "the relay is down".
	SubmitDroppedQuota
)

// Submit routes one item: direct delivery when the recipient is online
// (falling back to the queue when the send fails under it), the
// bounded queue otherwise. Callers must not report SubmitDropped or
// SubmitDroppedQuota items as pending — nothing will ever deliver them.
func (r *Relay) Submit(it Item) SubmitResult {
	if r.closed.Load() {
		return SubmitDropped
	}
	it.expires = r.cfg.Clock().Add(itemTTL)
	if r.online(it.To) {
		if err := r.deliverOne(it); err == nil {
			r.deliveredDirect.Add(1)
			// A direct success proves the peer reachable: drain any
			// stragglers an earlier failed flush put back in its queue,
			// so they don't sit until TTL while new traffic flows past.
			r.Flush(it.To)
			return SubmitDirect
		}
		r.deliverErrors.Add(1)
	}
	// Queue path: quota first (a refused item must not reach the WAL),
	// then the durable append, then the in-memory queue.
	spEnq := trace.Begin(it.Trace, trace.StageEnqueue)
	if !r.reserveQuota(it) {
		r.droppedQuota.Add(1)
		r.audit(audit.Event{Kind: audit.KindRelayDrop, Peer: string(it.From), Op: "relay-submit", Reason: "quota", Trace: it.Trace})
		// Anomalous: force-captured even when the trace is unsampled,
		// so the sender's quota refusal is always attributable.
		r.cfg.Tracer.End(spEnq, trace.OutcomeQuota)
		return SubmitDroppedQuota
	}
	// The queue keeps the item past Submit, so it keeps no source.
	it.own()
	if r.log != nil {
		// Stage the trace for fsync attribution BEFORE the append:
		// in sync-per-append mode the fsync happens inside AppendAdd.
		r.stageFsyncTrace(it.Trace)
		spWAL := trace.Begin(it.Trace, trace.StageWALAppend)
		seq, err := r.log.AppendAdd(wal.Record{
			To: it.To, From: it.From, Group: it.Group,
			Payload: it.Payload, Expires: it.expires,
		})
		if err != nil {
			// The log died (disk fault or injected crash). Keep serving
			// from memory — a degraded relay beats a dead one — but
			// count it: operators alert on WALErrors.
			r.walFault(1, it.From, "relay-append", err, it.Trace)
			r.cfg.Tracer.End(spWAL, trace.OutcomeWALError)
		} else {
			it.seq = seq
			r.cfg.Tracer.End(spWAL, trace.OutcomeOK)
		}
	}
	s := r.shardOf(it.To)
	it.enqueuedAt = r.cfg.Clock()
	s.enqueue(it)
	r.cfg.Tracer.End(spEnq, trace.OutcomeOK)
	// Close raced the enqueue: the workers are (or are about to be)
	// gone and nothing will drain this item, so don't report it queued.
	if r.closed.Load() {
		return SubmitDropped
	}
	// Close the enqueue-vs-login race: if the peer came online between
	// the check above and the enqueue, its login flush may already have
	// run and missed this item — re-trigger. Either the enqueue
	// happened before the flush drained (item delivered there) or this
	// flush sees it; no ordering loses the item.
	if r.online(it.To) {
		r.Flush(it.To)
	}
	return SubmitQueued
}

// ones is a free list of the one-item batches Submit hands a direct push
// in, so that the push allocates none: a leaky buffer, which makes a batch
// when none is free and drops one when it is full.
var ones = make(chan *[1]Item, 16)

// deliverOne delivers it as a batch of one.
func (r *Relay) deliverOne(it Item) error {
	var one *[1]Item
	select {
	case one = <-ones:
	default:
		one = new([1]Item)
	}
	one[0] = it
	err := r.deliver(one[:])
	one[0] = Item{}
	select {
	case ones <- one:
	default:
	}
	return err
}

// reserveQuota claims one unit of sender and group occupancy, refusing
// when either is at its cap. Direct deliveries never reserve — quotas
// bound queue OCCUPANCY, the contended resource.
func (r *Relay) reserveQuota(it Item) bool {
	if r.cfg.SenderQuota <= 0 && r.cfg.GroupQuota <= 0 {
		return true
	}
	r.quotaMu.Lock()
	defer r.quotaMu.Unlock()
	if r.cfg.SenderQuota > 0 && r.bySender[it.From] >= r.cfg.SenderQuota {
		return false
	}
	if r.cfg.GroupQuota > 0 && r.byGroup[it.Group] >= r.cfg.GroupQuota {
		return false
	}
	r.bySender[it.From]++
	r.byGroup[it.Group]++
	return true
}

// releaseQuota returns an item's occupancy when it leaves its queue for
// any reason (delivered, expired, dropped).
func (r *Relay) releaseQuota(it Item) {
	if r.cfg.SenderQuota <= 0 && r.cfg.GroupQuota <= 0 {
		return
	}
	r.quotaMu.Lock()
	defer r.quotaMu.Unlock()
	if n := r.bySender[it.From] - 1; n > 0 {
		r.bySender[it.From] = n
	} else {
		delete(r.bySender, it.From)
	}
	if n := r.byGroup[it.Group] - 1; n > 0 {
		r.byGroup[it.Group] = n
	} else {
		delete(r.byGroup, it.Group)
	}
}

// SenderOverQuota reports whether a sender has exhausted its queue
// quota — the broker's fast-fail check before it pays for slicing a
// round whose every slice would be refused.
func (r *Relay) SenderOverQuota(id keys.PeerID) bool {
	if r.cfg.SenderQuota <= 0 {
		return false
	}
	r.quotaMu.Lock()
	defer r.quotaMu.Unlock()
	return r.bySender[id] >= r.cfg.SenderQuota
}

// Flush marks a peer's queue due now on its shard's schedule and nudges
// the worker, which drains it in FIFO order, discarding expired items and
// stopping at the first failure (the peer went away again). A queue whose
// last item a drain holds counts, so that a login meanwhile is not lost
// if that delivery fails. Flush never blocks and starts nothing.
func (r *Relay) Flush(id keys.PeerID) {
	if r.closed.Load() {
		return
	}
	s := r.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, queued := s.queues[id]; queued {
		s.sched[id] = time.Time{}
		select {
		case s.wake <- struct{}{}:
		default: // the nudge already pending stands for this one
		}
	}
}

// fsyncPendingCap bounds the traced-item staging list so a sync stall
// cannot grow it without bound; overflow items simply lose their fsync
// span, never their data.
const fsyncPendingCap = 512

// stageFsyncTrace marks a traced item as staged behind the next WAL
// fsync. Duplicates (several slices of one round) collapse to one span.
// An untraced item, or a relay without the recorder whose hook drains
// the list, stages nothing.
func (r *Relay) stageFsyncTrace(id uint64) {
	if id == 0 || r.cfg.Tracer == nil {
		return
	}
	r.fsyncMu.Lock()
	defer r.fsyncMu.Unlock()
	if len(r.fsyncPending) >= fsyncPendingCap {
		return
	}
	for _, p := range r.fsyncPending {
		if p == id {
			return
		}
	}
	r.fsyncPending = append(r.fsyncPending, id)
}

// onWALSync is the wal.Options.OnSync hook: one fsync covered every
// trace staged since the previous one, so each gets a wal-fsync span
// with the sync's start and duration. Runs with wal locks held — it
// must only touch the recorder and the pending list.
func (r *Relay) onWALSync(start time.Time, d time.Duration) {
	r.fsyncMu.Lock()
	ids := r.fsyncPending
	r.fsyncPending = nil
	r.fsyncMu.Unlock()
	for _, id := range ids {
		r.cfg.Tracer.Record(trace.Span{
			TraceID:  id,
			Stage:    trace.StageWALFsync,
			Outcome:  trace.OutcomeOK,
			Start:    start.UnixNano(),
			Duration: d.Nanoseconds(),
		})
	}
}

// Sync forces the WAL to disk, making every accepted submission so far
// durable. A no-op for an in-memory relay.
func (r *Relay) Sync() error {
	if r.log == nil {
		return nil
	}
	return r.log.Sync()
}

// QueueLen reports how many items are queued for a peer (expired items
// included until their lazy removal).
func (r *Relay) QueueLen(id keys.PeerID) int {
	s := r.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queues[id].items)
}

// QueuedTotal reports the total queued items across all peers.
func (r *Relay) QueuedTotal() int {
	total := 0
	for _, s := range r.shards {
		s.mu.Lock()
		for _, q := range s.queues {
			total += len(q.items)
		}
		s.mu.Unlock()
	}
	return total
}

// Metrics returns a snapshot of the counters.
func (r *Relay) Metrics() Metrics {
	return Metrics{
		DeliveredDirect:        r.deliveredDirect.Load(),
		DeliveredFlushed:       r.deliveredFlushed.Load(),
		Enqueued:               r.enqueued.Load(),
		DroppedOverflow:        r.droppedOverflow.Load(),
		DroppedQuota:           r.droppedQuota.Load(),
		Expired:                r.expired.Load(),
		DeliverErrors:          r.deliverErrors.Load(),
		WALErrors:              r.walErrors.Load(),
		RecoveryReplayed:       r.recoveryReplayed,
		RecoveryDiscardedTTL:   r.recoveryDiscardedTTL,
		RecoveryDiscardedGuard: r.recoveryDiscardedGuard,
	}
}

// Close stops the delivery workers, and with them every scheduled drain
// and retry. Queued items are abandoned in memory but remain in the WAL
// (graceful shutdown does NOT ack them): a relay reopened on the same
// directory recovers them.
func (r *Relay) Close() {
	if r.closed.Swap(true) {
		return
	}
	if r.busCancel != nil {
		r.busCancel()
	}
	close(r.stop)
	r.wg.Wait()
	if r.log != nil {
		_ = r.log.Close()
	}
}

// enqueue appends it to its peer's queue, pruning the expired items and
// dropping the oldest on overflow. It retires those after unlocking, so
// that no fsync of their acks holds the shard.
func (s *shard) enqueue(it Item) {
	now := s.r.cfg.Clock()
	s.mu.Lock()
	q, expired := s.pruneLocked(it.To, now)
	var dropped []Item
	if len(q.items) >= s.r.cfg.QueueCap {
		// Drop-oldest: the front of the FIFO is the stalest traffic.
		drop := len(q.items) - s.r.cfg.QueueCap + 1
		dropped = append(dropped, q.items[:drop]...)
		clear(q.items[:drop])
		q.items = q.items[drop:]
		s.r.droppedOverflow.Add(uint64(drop))
	}
	q.bound(it.expires)
	q.items = append(q.items, it)
	s.queues[it.To] = q
	s.mu.Unlock()
	s.r.enqueued.Add(1)
	s.r.retire(wal.AckExpired, expired...)
	for _, old := range dropped {
		s.r.retire(wal.AckDropped, old)
		s.r.audit(audit.Event{Kind: audit.KindRelayDrop, Peer: string(old.From), Op: "relay-enqueue", Reason: "overflow", Trace: old.Trace})
	}
}

// retire logs the departure of items, all of one peer's queue, for
// reason — in one WAL append, which at SyncInterval 0 waits for one fsync
// — and returns their quota occupancy. Every exit path (delivered,
// expired, dropped) funnels through here so the WAL and the quota books
// can never disagree. It may fsync, so no shard lock is held across it.
func (r *Relay) retire(reason wal.AckReason, items ...Item) {
	var room [drainBatch]wal.Seq
	seqs := room[:0] // a drain's batch fits; a longer list of expired items grows it
	for _, it := range items {
		r.releaseQuota(it)
		if it.seq != 0 {
			seqs = append(seqs, it.seq)
		}
	}
	if r.log == nil || len(seqs) == 0 {
		return
	}
	if err := r.log.AppendAcks(reason, seqs...); err != nil {
		r.walFault(len(seqs), items[0].To, "relay-ack", err, items[0].Trace)
	}
}

// ack logs a recovered item's departure, for reason, to the WAL.
func (r *Relay) ack(seq wal.Seq, reason wal.AckReason, to keys.PeerID) {
	if err := r.log.AppendAck(seq, reason); err != nil {
		r.walFault(1, to, "relay-recover", err, 0)
	}
}

// walFault counts n queue mutations the WAL refused to log and audits the
// refusal once.
func (r *Relay) walFault(n int, peer keys.PeerID, op string, err error, tr uint64) {
	r.walErrors.Add(uint64(n))
	r.audit(audit.Event{Kind: audit.KindWALError, Peer: string(peer), Op: op, Reason: err.Error(), Trace: tr})
}

// audit appends one record to the configured audit journal. Safe on a
// nil journal (Record is nil-receiver tolerant), so call sites stay
// unconditional.
func (r *Relay) audit(e audit.Event) { r.cfg.Auditor.Record(e) }

// pruneLocked removes expired items wherever they sit in the peer's
// queue (a clock stepped back between two submissions queues an item
// behind one that expires later) and returns the surviving queue and
// the expired items, which the caller retires once it has unlocked (nil
// when none expired). Before its due it reads nothing. Caller holds s.mu.
func (s *shard) pruneLocked(id keys.PeerID, now time.Time) (queue, []Item) {
	q := s.queues[id]
	if !now.After(q.due) {
		return q, nil
	}
	var expired []Item
	kept := q.items[:0]
	q.due = time.Time{}
	for _, it := range q.items {
		if now.After(it.expires) {
			s.r.expired.Add(1)
			expired = append(expired, it)
			continue
		}
		q.bound(it.expires)
		kept = append(kept, it)
	}
	clear(q.items[len(kept):])
	if len(kept) == 0 {
		delete(s.queues, id)
		return queue{}, expired
	}
	q.items = kept
	s.queues[id] = q
	return q, expired
}

// work drains the peers the schedule holds due, pass after pass; between
// passes it waits for a nudge or for its timer, set to the earliest instant
// left (New makes it, so a started worker allocates nothing of its own).
// Returning, it stops the timer and empties the schedule.
func (s *shard) work(timer *time.Timer) {
	defer s.r.wg.Done()
	defer func() {
		timer.Stop()
		s.mu.Lock()
		clear(s.sched)
		s.mu.Unlock()
	}()
	var room [8]keys.PeerID
	ready := room[:0] // reused pass after pass
	for {
		var next time.Time
		if ready, next = s.takeDue(ready[:0], time.Now()); len(ready) == 0 {
			if next.IsZero() {
				timer.Stop()
			} else {
				timer.Reset(time.Until(next))
			}
			select {
			case <-s.r.stop:
				return
			case <-s.wake:
			case <-timer.C:
			}
		}
		for _, id := range ready {
			if retry := s.drain(id); retry > 0 {
				s.mu.Lock()
				if _, due := s.sched[id]; !due { // else a Flush since made it due now
					s.sched[id] = time.Now().Add(retry)
				}
				s.mu.Unlock()
			}
		}
	}
}

// takeDue moves the peers due by now from the schedule onto ready and
// returns the earliest instant of those it leaves (zero: none).
func (s *shard) takeDue(ready []keys.PeerID, now time.Time) (_ []keys.PeerID, next time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, at := range s.sched {
		if !at.After(now) {
			ready = append(ready, id)
			delete(s.sched, id)
		} else if next.IsZero() || at.Before(next) {
			next = at
		}
	}
	return ready, next
}

// drain delivers the peer's queue in order, a batch at a time: prune it
// once, then take a batch from the front under the lock (take) and deliver
// it outside (delivery does wire I/O) in one call. On failure the batch
// goes back at the front, in order, and the drain stops, returning the
// delay before a retry when the peer is still online (0: none). A
// delivered batch is acked to the WAL, in one append, AFTER the handoff to
// the wire — so a crash between the two redelivers (at-least-once) rather
// than loses, and the recipient's replay guard collapses the duplicates.
func (s *shard) drain(id keys.PeerID) (retry time.Duration) {
	flushed := 0
	s.mu.Lock()
	_, expired := s.pruneLocked(id, s.r.cfg.Clock())
	s.mu.Unlock()
	s.r.retire(wal.AckExpired, expired...)
	for {
		batch, more := s.take(id)
		if !more {
			break
		}
		if len(batch) == 0 {
			continue
		}
		if err := s.r.deliver(batch); err != nil {
			s.r.deliverErrors.Add(1)
			// Put the batch back where it was. Usually the peer went away
			// again and its next login flushes the queue — but a TRANSIENT
			// failure against a still-online peer has no such trigger, so
			// it retries on RetryBackoff's ladder, which a drain that
			// delivered restarts.
			online := s.r.online(id)
			s.mu.Lock()
			q := s.queues[id]
			for _, it := range batch {
				q.bound(it.expires)
			}
			q.items = append(append(make([]Item, 0, len(batch)+len(q.items)), batch...), q.items...)
			if flushed > 0 {
				q.attempts = 0
			}
			if online {
				retry = RetryBackoff.Delay(q.attempts, nil)
				q.attempts++
			}
			s.queues[id] = q
			s.mu.Unlock()
			clear(batch)
			break
		}
		s.r.retire(wal.AckDelivered, batch...)
		s.r.deliveredFlushed.Add(uint64(len(batch)))
		for _, it := range batch {
			if it.Trace != 0 && !it.enqueuedAt.IsZero() {
				// Attribute the dwell time between enqueue and this flush
				// delivery to the item's trace (the guard saves the clock
				// read for an untraced or recovered item).
				s.r.cfg.Tracer.Record(trace.Span{
					TraceID:  it.Trace,
					Stage:    trace.StageQueueWait,
					Outcome:  trace.OutcomeOK,
					Start:    it.enqueuedAt.UnixNano(),
					Duration: s.r.cfg.Clock().Sub(it.enqueuedAt).Nanoseconds(),
				})
			}
		}
		flushed += len(batch)
		clear(batch)
	}
	if flushed > 0 && s.r.bus != nil && s.r.bus.Wants(events.RelayFlushed) {
		s.r.bus.Emit(events.Event{Type: events.RelayFlushed, From: id, Payload: map[string]string{
			"delivered": strconv.Itoa(flushed),
		}})
	}
	return retry
}

// take moves the front of the peer's queue into the shard's batch: at
// most r.batch items and drainBytes of payload, or one item of more, in
// a step that copies the batch whatever the queue's length. It retires the
// items it finds expired and returns the others, in order; more is false
// once the queue is empty, which it then deletes, its attempt count with
// it. A queue whose last items a drain holds stays, so that a Flush
// meanwhile counts.
func (s *shard) take(id keys.PeerID) (batch []Item, more bool) {
	s.mu.Lock()
	q := s.queues[id]
	if len(q.items) == 0 {
		delete(s.queues, id)
		s.mu.Unlock()
		return nil, false
	}
	n, size := 1, len(q.items[0].Payload)
	for ; n < len(q.items) && n < s.r.batch && size+len(q.items[n].Payload) <= drainBytes; n++ {
		size += len(q.items[n].Payload)
	}
	s.batch = append(s.batch[:0], q.items[:n]...)
	clear(q.items[:n]) // the queue's array keeps no payload it handed out
	q.items = q.items[n:]
	s.queues[id] = q
	s.mu.Unlock()

	// The live items move to the front, in order, and the expired ones
	// behind them.
	now, live := s.r.cfg.Clock(), 0
	for i := range s.batch {
		if !now.After(s.batch[i].expires) {
			s.batch[live], s.batch[i] = s.batch[i], s.batch[live]
			live++
		}
	}
	if dead := s.batch[live:]; len(dead) > 0 {
		s.r.expired.Add(uint64(len(dead)))
		s.r.retire(wal.AckExpired, dead...)
		clear(dead)
	}
	return s.batch[:live], true
}
