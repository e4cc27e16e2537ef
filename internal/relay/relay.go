// Package relay implements the broker-side store-and-forward delivery
// subsystem: per-recipient wires (round slices cut by the broker from
// one uploaded ModeGroup round) are delivered immediately to online
// peers and queued — in bounded, TTL-expiring, per-peer FIFO queues —
// for offline ones, then drained by sharded delivery workers when the
// peer's presence comes back (login events on the events.Bus).
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
	Payload []byte
	// Expires is when the item stops being deliverable. The zero value
	// means "now + Config.TTL", stamped at submission.
	Expires time.Time
	// Forwarded marks an item received through federation hand-off; the
	// delivery hook must not forward it a second time (one-hop loop
	// guard across the broker mesh).
	Forwarded bool
	// Trace is the message-lifecycle trace ID the item belongs to
	// (0 = untraced). It rides in memory only — the WAL record format
	// does not carry it, so recovered items come back untraced.
	Trace uint64

	// seq is the item's WAL sequence number (0 = not persisted).
	seq wal.Seq
	// enqueuedAt stamps when the item entered its offline queue, so a
	// later flush can attribute the queue-wait stage to its trace.
	enqueuedAt time.Time
}

// DeliverFunc hands one item to its recipient. A non-nil error means
// the recipient was not reached; the relay keeps (or re-queues) the
// item until its TTL runs out.
type DeliverFunc func(it Item) error

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
	// TTL is how long a queued item stays deliverable (0 = 2 minutes).
	// Note the tension with the recipients' replay-guard freshness
	// window: items held longer than that window would be rejected as
	// stale on delivery anyway, so the TTL should not exceed it.
	TTL time.Duration
	// Shards is the number of queue shards, each with one delivery
	// worker (0 = 8). Peers hash onto shards, so flushes for different
	// peers proceed in parallel while one peer's queue always drains in
	// order from a single worker.
	Shards int
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

// RetryBackoff spaces the re-drain attempts armed after delivery
// failures against a still-online peer: capped exponential with full
// jitter, per-peer attempt counters resetting on a successful delivery.
// A fixed spacing re-synchronizes every stuck peer's retries; the jitter
// spreads them out. The first re-drain is as prompt as a quarter-second
// timer, while a persistently failing peer's retries stretch to 5s.
var RetryBackoff = backoff.Policy{Base: 250 * time.Millisecond, Cap: 5 * time.Second}

// Metrics is a snapshot of the relay's counters.
type Metrics struct {
	// DeliveredDirect counts items handed to online recipients without
	// queueing.
	DeliveredDirect uint64
	// DeliveredFlushed counts queued items delivered by a flush.
	DeliveredFlushed uint64
	// HandedOff counts items forwarded to a federation partner broker
	// because the recipient's presence migrated there.
	HandedOff uint64
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

	shards []*shard
	wg     sync.WaitGroup
	stop   chan struct{}
	closed atomic.Bool

	log *wal.Log // nil when running in-memory

	// Cross-queue quota occupancy, by sender and by group.
	quotaMu  sync.Mutex
	bySender map[keys.PeerID]int
	byGroup  map[string]int

	// Armed mid-drain retry timers, cancelled by Close so a retry can
	// never fire against a closed relay. retryAttempts drives the
	// per-peer backoff schedule.
	retryMu       sync.Mutex
	retryTimers   map[keys.PeerID]*time.Timer
	retryAttempts map[keys.PeerID]int

	bus       *events.Bus // optional, set by BindBus; emits RelayFlushed
	busCancel func()      // unsubscribes from the bus; called by Close

	// Traced items staged behind the next WAL fsync; the OnSync hook
	// drains it to attribute the fsync's duration to each trace.
	fsyncMu      sync.Mutex
	fsyncPending []uint64

	deliveredDirect  atomic.Uint64
	deliveredFlushed atomic.Uint64
	handedOff        atomic.Uint64
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
	r       *Relay
	mu      sync.Mutex
	queues  map[keys.PeerID][]Item
	flushCh chan keys.PeerID
}

// New starts a relay. online gates direct delivery; deliver performs
// it. Both must be safe for concurrent use. With Config.WAL.Dir set the
// previous process's queue log is replayed first: un-acked items
// re-enter their queues (TTL re-checked, acked items never resurrected)
// and the error reports an unreadable or unreplayable log.
func New(cfg Config, online OnlineFunc, deliver DeliverFunc) (*Relay, error) {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 2 * time.Minute
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	r := &Relay{
		cfg:           cfg,
		deliver:       deliver,
		online:        online,
		stop:          make(chan struct{}),
		bySender:      make(map[keys.PeerID]int),
		byGroup:       make(map[string]int),
		retryTimers:   make(map[keys.PeerID]*time.Timer),
		retryAttempts: make(map[keys.PeerID]int),
	}
	r.shards = make([]*shard, cfg.Shards)
	for i := range r.shards {
		r.shards[i] = &shard{r: r, queues: make(map[keys.PeerID][]Item), flushCh: make(chan keys.PeerID, 256)}
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
		go s.work()
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
			if aerr := log.AppendAck(rec.Seq, wal.AckExpired); aerr != nil {
				r.walErrors.Add(1)
				r.audit(audit.Event{Kind: audit.KindWALError, Peer: string(rec.To), Op: "relay-recover", Reason: aerr.Error()})
			}
			continue
		}
		it := Item{
			To: rec.To, From: rec.From, Group: rec.Group,
			Payload: rec.Payload, Expires: rec.Expires,
			Forwarded: rec.Forwarded, seq: rec.Seq,
		}
		if !r.reserveQuota(it) {
			r.droppedQuota.Add(1)
			r.audit(audit.Event{Kind: audit.KindRelayDrop, Peer: string(it.From), Op: "relay-recover", Reason: "quota"})
			if aerr := log.AppendAck(rec.Seq, wal.AckDropped); aerr != nil {
				r.walErrors.Add(1)
				r.audit(audit.Event{Kind: audit.KindWALError, Peer: string(rec.To), Op: "relay-recover", Reason: aerr.Error()})
			}
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
	// recipient's next login (or the armed retry).
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
	if it.Expires.IsZero() {
		it.Expires = r.cfg.Clock().Add(r.cfg.TTL)
	}
	if r.online(it.To) {
		if err := r.deliver(it); err == nil {
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
	traced := r.cfg.Tracer != nil && it.Trace != 0
	var spEnq trace.Span
	if traced {
		spEnq = trace.Begin(it.Trace, trace.StageEnqueue)
	}
	if !r.reserveQuota(it) {
		r.droppedQuota.Add(1)
		r.audit(audit.Event{Kind: audit.KindRelayDrop, Peer: string(it.From), Op: "relay-submit", Reason: "quota", Trace: it.Trace})
		if traced {
			// Anomalous: force-captured even when the trace is unsampled,
			// so the sender's quota refusal is always attributable.
			r.cfg.Tracer.End(spEnq, trace.OutcomeQuota)
		}
		return SubmitDroppedQuota
	}
	if r.log != nil {
		var spWAL trace.Span
		if traced {
			// Stage the trace for fsync attribution BEFORE the append:
			// in sync-per-append mode the fsync happens inside AppendAdd.
			r.stageFsyncTrace(it.Trace)
			spWAL = trace.Begin(it.Trace, trace.StageWALAppend)
		}
		seq, err := r.log.AppendAdd(wal.Record{
			To: it.To, From: it.From, Group: it.Group,
			Payload: it.Payload, Expires: it.Expires, Forwarded: it.Forwarded,
		})
		if err != nil {
			// The log died (disk fault or injected crash). Keep serving
			// from memory — a degraded relay beats a dead one — but
			// count it: operators alert on WALErrors.
			r.walErrors.Add(1)
			r.audit(audit.Event{Kind: audit.KindWALError, Peer: string(it.From), Op: "relay-append", Reason: err.Error(), Trace: it.Trace})
			if traced {
				r.cfg.Tracer.End(spWAL, trace.OutcomeWALError)
			}
		} else {
			it.seq = seq
			if traced {
				r.cfg.Tracer.End(spWAL, trace.OutcomeOK)
			}
		}
	}
	s := r.shardOf(it.To)
	it.enqueuedAt = r.cfg.Clock()
	s.enqueue(it)
	if traced {
		r.cfg.Tracer.End(spEnq, trace.OutcomeOK)
	}
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

// TTL reports the queue TTL items are stamped with at submission.
func (r *Relay) TTL() time.Duration { return r.cfg.TTL }

// retryFlush arms a delayed re-drain of the peer's queue, spaced by
// the capped-exponential-with-jitter schedule (RetryBackoff) on
// the peer's attempt counter. The timer is tracked so Close can cancel
// it: without that, a retry armed just before shutdown could fire
// against a closed relay (and, under -race, against freed state). One
// armed timer per peer — re-arming replaces.
func (r *Relay) retryFlush(id keys.PeerID) {
	r.retryMu.Lock()
	defer r.retryMu.Unlock()
	if r.closed.Load() {
		return
	}
	if t, ok := r.retryTimers[id]; ok {
		t.Stop()
	}
	attempt := r.retryAttempts[id]
	r.retryAttempts[id] = attempt + 1
	delay := RetryBackoff.Delay(attempt, nil)
	var tm *time.Timer
	tm = time.AfterFunc(delay, func() {
		r.retryMu.Lock()
		if r.retryTimers[id] == tm {
			delete(r.retryTimers, id)
		}
		r.retryMu.Unlock()
		r.Flush(id)
	})
	r.retryTimers[id] = tm
}

// resetRetry rewinds a peer's backoff schedule after a successful
// delivery, so the next transient failure starts from the base delay
// again instead of the stretched tail.
func (r *Relay) resetRetry(id keys.PeerID) {
	r.retryMu.Lock()
	delete(r.retryAttempts, id)
	r.retryMu.Unlock()
}

// Flush schedules an asynchronous drain of the peer's queue on its
// shard worker. Draining attempts delivery in FIFO order and stops at
// the first failure (the peer went away again); expired items are
// discarded.
func (r *Relay) Flush(id keys.PeerID) {
	if r.closed.Load() {
		return
	}
	s := r.shardOf(id)
	s.mu.Lock()
	pending := len(s.queues[id]) > 0
	s.mu.Unlock()
	if !pending {
		return
	}
	select {
	case s.flushCh <- id:
	default:
		// Worker backlog: hand off without blocking the caller (which
		// may be the broker's login path).
		go func() {
			select {
			case s.flushCh <- id:
			case <-r.stop:
			}
		}()
	}
}

// fsyncPendingCap bounds the traced-item staging list so a sync stall
// cannot grow it without bound; overflow items simply lose their fsync
// span, never their data.
const fsyncPendingCap = 512

// stageFsyncTrace marks a traced item as staged behind the next WAL
// fsync. Duplicates (several slices of one round) collapse to one span.
func (r *Relay) stageFsyncTrace(id uint64) {
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
	return len(s.queues[id])
}

// QueuedTotal reports the total queued items across all peers.
func (r *Relay) QueuedTotal() int {
	total := 0
	for _, s := range r.shards {
		s.mu.Lock()
		for _, q := range s.queues {
			total += len(q)
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
		HandedOff:              r.handedOff.Load(),
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

// AddHandoff counts one federation hand-off (called by the broker-side
// delivery hook when it routes an item to a partner broker instead of
// a local recipient).
func (r *Relay) AddHandoff() { r.handedOff.Add(1) }

// Close stops the delivery workers and cancels armed retries. Queued
// items are abandoned in memory but remain in the WAL (graceful
// shutdown does NOT ack them): a relay reopened on the same directory
// recovers them.
func (r *Relay) Close() {
	if r.closed.Swap(true) {
		return
	}
	r.retryMu.Lock()
	for id, t := range r.retryTimers {
		t.Stop()
		delete(r.retryTimers, id)
	}
	r.retryMu.Unlock()
	if r.busCancel != nil {
		r.busCancel()
	}
	close(r.stop)
	r.wg.Wait()
	if r.log != nil {
		_ = r.log.Close()
	}
}

func (s *shard) enqueue(it Item) {
	now := s.r.cfg.Clock()
	s.mu.Lock()
	q := s.pruneLocked(it.To, now)
	if len(q) >= s.r.cfg.QueueCap {
		// Drop-oldest: the front of the FIFO is the stalest traffic.
		drop := len(q) - s.r.cfg.QueueCap + 1
		for _, old := range q[:drop] {
			s.r.retire(old, wal.AckDropped)
			s.r.audit(audit.Event{Kind: audit.KindRelayDrop, Peer: string(old.From), Op: "relay-enqueue", Reason: "overflow", Trace: old.Trace})
		}
		q = append(q[:0], q[drop:]...)
		s.r.droppedOverflow.Add(uint64(drop))
	}
	s.queues[it.To] = append(q, it)
	s.mu.Unlock()
	s.r.enqueued.Add(1)
}

// retire logs an item's departure from its queue and returns its quota
// occupancy. Every exit path (delivered, expired, dropped) funnels
// through here so the WAL and the quota books can never disagree.
func (r *Relay) retire(it Item, reason wal.AckReason) {
	r.releaseQuota(it)
	if r.log != nil && it.seq != 0 {
		if err := r.log.AppendAck(it.seq, reason); err != nil {
			r.walErrors.Add(1)
			r.audit(audit.Event{Kind: audit.KindWALError, Peer: string(it.To), Op: "relay-ack", Reason: err.Error(), Trace: it.Trace})
		}
	}
}

// audit appends one record to the configured audit journal. Safe on a
// nil journal (Record is nil-receiver tolerant), so call sites stay
// unconditional.
func (r *Relay) audit(e audit.Event) { r.cfg.Auditor.Record(e) }

// pruneLocked removes expired items wherever they sit in the peer's
// queue (items submitted with caller-set TTLs need not expire in FIFO
// order) and returns the surviving queue. Caller holds s.mu.
func (s *shard) pruneLocked(id keys.PeerID, now time.Time) []Item {
	q := s.queues[id]
	kept := q[:0]
	for _, it := range q {
		if now.After(it.Expires) {
			s.r.expired.Add(1)
			s.r.retire(it, wal.AckExpired)
			continue
		}
		kept = append(kept, it)
	}
	if len(kept) == 0 && q != nil {
		delete(s.queues, id)
		return nil
	}
	s.queues[id] = kept
	return kept
}

func (s *shard) work() {
	defer s.r.wg.Done()
	for {
		select {
		case <-s.r.stop:
			return
		case id := <-s.flushCh:
			s.drain(id)
		}
	}
}

// drain delivers the peer's queue in order: pop the front under the
// lock, deliver outside it (delivery does wire I/O), push back at the
// front and stop on failure. A successful delivery is acked to the WAL
// AFTER the handoff to the wire — so a crash between the two redelivers
// (at-least-once) rather than loses, and the recipient's replay guard
// collapses the duplicate.
func (s *shard) drain(id keys.PeerID) {
	flushed := 0
	for {
		now := s.r.cfg.Clock()
		s.mu.Lock()
		q := s.pruneLocked(id, now)
		if len(q) == 0 {
			s.mu.Unlock()
			break
		}
		it := q[0]
		s.queues[id] = q[1:]
		s.mu.Unlock()

		if err := s.r.deliver(it); err != nil {
			s.r.deliverErrors.Add(1)
			// Put the item back where it was. Usually the peer went away
			// again and the next presence event re-triggers the drain —
			// but a TRANSIENT failure against a still-online peer has no
			// such trigger, so arm a delayed retry; it re-enters this
			// path (re-arming) until delivery succeeds, the peer drops
			// offline, or the items expire.
			s.mu.Lock()
			s.queues[id] = append([]Item{it}, s.queues[id]...)
			s.mu.Unlock()
			if s.r.online(id) {
				s.r.retryFlush(id)
			}
			break
		}
		s.r.retire(it, wal.AckDelivered)
		s.r.deliveredFlushed.Add(1)
		if s.r.cfg.Tracer != nil && it.Trace != 0 && !it.enqueuedAt.IsZero() {
			// Attribute the dwell time between enqueue and this flush
			// delivery to the item's trace.
			s.r.cfg.Tracer.Record(trace.Span{
				TraceID:  it.Trace,
				Stage:    trace.StageQueueWait,
				Outcome:  trace.OutcomeOK,
				Start:    it.enqueuedAt.UnixNano(),
				Duration: s.r.cfg.Clock().Sub(it.enqueuedAt).Nanoseconds(),
			})
		}
		flushed++
	}
	if flushed > 0 {
		s.r.resetRetry(id)
	}
	if flushed > 0 && s.r.bus != nil {
		s.r.bus.Emit(events.Event{Type: events.RelayFlushed, From: id, Payload: map[string]string{
			"delivered": strconv.Itoa(flushed),
		}})
	}
}
