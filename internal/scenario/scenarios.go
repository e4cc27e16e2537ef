package scenario

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"jxtaoverlay/internal/admission"
	"jxtaoverlay/internal/backoff"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
)

// joinStorm brings the whole population up at once: every client runs
// secureConnection + secureLogin concurrently against one broker. The
// summary's latency quantiles are per-join wall times and Delivered is
// the count of successful joins — the scenario fails if any peer is
// turned away or the storm trips a security alert.
func joinStorm(ctx context.Context, opt Options, profile simnet.LinkProfile) (*Summary, error) {
	n := opt.Clients
	if n <= 0 {
		n = 20
	}
	sum := &Summary{Scenario: "join-storm", Profile: opt.Profile, Clients: n, Rounds: 1,
		Drops: map[string]int64{}, Anomalies: []string{}}
	s, err := newStack(n, profile, nil, core.RelayConfig{}, 0, opt)
	if err != nil {
		return nil, err
	}
	defer s.close()

	var (
		mu       sync.Mutex
		joinLat  []time.Duration
		failures []string
		wg       sync.WaitGroup
	)
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			_, err := s.join(ctx, i, nil)
			d := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failures = append(failures, err.Error())
				return
			}
			joinLat = append(joinLat, d)
		}(i)
	}
	wg.Wait()
	dur := time.Since(start)

	sum.DurationSec = dur.Seconds()
	sum.Delivered = int64(len(joinLat))
	if dur > 0 {
		sum.RoundsPerSec = float64(len(joinLat)) / dur.Seconds()
	}
	sum.P50DeliveryMS = quantileMS(joinLat, 0.50)
	sum.P99DeliveryMS = quantileMS(joinLat, 0.99)
	for _, f := range failures {
		sum.anomaly("join failed: %s", f)
	}
	if on := s.br.Stats().PeersOnline; on != len(joinLat) {
		sum.anomaly("broker sees %d peers online, %d logged in", on, len(joinLat))
	}
	finish(sum, s)
	return sum, nil
}

// drainSpike fills the relay's offline queues and then releases them
// all at once: a third of the peers log out, the rest upload their
// rounds (slicing queues the absentees' copies), and the absentees
// re-login simultaneously — the drain spike. Delivery latency for a
// queued slice spans its owner's offline time by design; the gate is
// that every addressed slice arrives and nothing is shed.
func drainSpike(ctx context.Context, opt Options, profile simnet.LinkProfile) (*Summary, error) {
	n := opt.Clients
	if n <= 0 {
		n = 12
	}
	rounds := opt.Rounds
	if rounds <= 0 {
		rounds = 3
	}
	sum := &Summary{Scenario: "drain-spike", Profile: opt.Profile, Clients: n, Rounds: rounds,
		Drops: map[string]int64{}, Anomalies: []string{}}
	// Size each offline queue to the whole intended backlog: every
	// online sender addresses every churned peer each round, and an
	// overflow drop here must mean a relay bug, not an undersized
	// scenario default.
	relayCfg := core.RelayConfig{}
	relayCfg.QueueCap = n*rounds + 16
	// Durable queues: the spike runs over a real WAL so traced runs show
	// the append/fsync stages a production drain would pay, and the
	// recovery path stays exercised by a scenario, not just unit tests.
	walDir, err := os.MkdirTemp("", "drain-spike-wal-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)
	relayCfg.WAL.Dir = walDir
	s, err := newStack(n, profile, nil, relayCfg, 0, opt)
	if err != nil {
		return nil, err
	}
	defer s.close()

	rec := newRecorder()
	clients := make([]*core.SecureClient, n)
	for i := 0; i < n; i++ {
		if clients[i], err = s.join(ctx, i, rec); err != nil {
			return nil, err
		}
	}
	var churned []int
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			churned = append(churned, i)
		}
	}
	for _, i := range churned {
		if err := clients[i].Logout(ctx); err != nil {
			return nil, fmt.Errorf("%s logout: %w", user(i), err)
		}
	}

	start := time.Now()
	uploads := 0
	for round := 0; round < rounds; round++ {
		for i, sc := range clients {
			if i%3 == 2 {
				continue
			}
			text := fmt.Sprintf("round %d from %s", round, user(i))
			if _, _, err := sc.SecureMsgPeerGroupRelay(ctx, "plenary", text); err != nil {
				sum.anomaly("%s round %d upload: %v", user(i), round, err)
				continue
			}
			uploads++
		}
	}

	// The spike: every churned peer returns at once; the relay's shard
	// workers drain each queue on the presence event.
	var wg sync.WaitGroup
	for _, i := range churned {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := clients[i].Join(ctx, s.br.PeerID(), pw(i)); err != nil {
				sum.anomaly("re-join: %v", err)
			}
		}(i)
	}
	wg.Wait()

	// Every upload addresses all other group members exactly once.
	senders := n - len(churned)
	expected := int64(uploads * (n - 1))
	if !waitFor(ctx, 30*time.Second, func() bool { return rec.count() >= expected && s.rly.QueuedTotal() == 0 }) {
		// fall through: the shortfall is reported below
	}
	dur := time.Since(start)

	sum.DurationSec = dur.Seconds()
	if dur > 0 {
		sum.RoundsPerSec = float64(uploads) / dur.Seconds()
	}
	sum.Delivered = rec.count()
	sum.P50DeliveryMS, sum.P99DeliveryMS = deliveryQuantiles(opt.Registry)
	if got := rec.count(); got != expected {
		sum.anomaly("delivered %d of %d addressed slices (%d senders)", got, expected, senders)
	}
	if residual := s.rly.QueuedTotal(); residual != 0 {
		sum.anomaly("%d slices still queued after drain", residual)
	}
	finish(sum, s)
	return sum, nil
}

// hostileDocs are the parser attack corpus: each would cost an
// expanding or recursing parser far more than its wire size, and each
// must be refused by the broker's canonical grammar at the scanned
// prefix. They cycle through the flood.
func hostileDocs() [][]byte {
	var bomb strings.Builder
	bomb.WriteString(`<!DOCTYPE lolz [<!ENTITY lol "lol">`)
	for i := 1; i <= 9; i++ {
		fmt.Fprintf(&bomb, `<!ENTITY lol%d "`, i)
		for j := 0; j < 10; j++ {
			fmt.Fprintf(&bomb, "&lol%d;", i-1)
		}
		bomb.WriteString(`">`)
	}
	bomb.WriteString("]><PipeAdvertisement><Id>&lol9;</Id></PipeAdvertisement>")
	return [][]byte{
		[]byte(bomb.String()),
		[]byte(strings.Repeat("<A>", 50_000)),
		[]byte(`<?xml version="1.0"?><PipeAdvertisement></PipeAdvertisement>`),
		[]byte("<PipeAdvertisement><!-- smuggled --><Id>x</Id></PipeAdvertisement>"),
		[]byte("\x00\xff\xfenot xml at all"),
		[]byte("<PipeAdvertisement><Id>unclosed"),
	}
}

// parseFlood hammers the broker's publishAdv surface with malformed
// documents from one logged-in credential while a bystander keeps
// doing legitimate work. The contract: every hostile document is
// refused (none reaches the advertisement cache), and the bystander
// never notices the flood.
func parseFlood(ctx context.Context, opt Options, profile simnet.LinkProfile) (*Summary, error) {
	n := opt.Clients
	if n <= 0 {
		n = 4
	}
	if n < 2 {
		n = 2
	}
	floods := opt.Rounds
	if floods <= 0 {
		floods = 60
	}
	sum := &Summary{Scenario: "parse-flood", Profile: opt.Profile, Clients: n, Rounds: floods,
		Drops: map[string]int64{}, Anomalies: []string{}}
	// Admission stays on but far above the flood rate: the scenario
	// isolates the parser, not the rate limiter.
	s, err := newStack(n, profile, &admission.Config{Rate: 10_000, Burst: 10_000}, core.RelayConfig{}, 0, opt)
	if err != nil {
		return nil, err
	}
	defer s.close()

	rec := newRecorder()
	clients := make([]*core.SecureClient, n)
	for i := 0; i < n; i++ {
		if clients[i], err = s.join(ctx, i, rec); err != nil {
			return nil, err
		}
	}
	flooder, bystander := clients[0], clients[1]
	advsBefore := s.br.Stats().AdvsPublished
	docs := hostileDocs()

	var bystanderLat []time.Duration
	start := time.Now()
	for i := 0; i < floods; i++ {
		msg := endpoint.NewMessage().
			AddString(proto.ElemOp, proto.OpPublishAdv).
			Add(proto.ElemAdv, docs[i%len(docs)])
		if _, err := flooder.Call(ctx, msg); err == nil {
			sum.anomaly("hostile document %d accepted by publishAdv", i)
		} else {
			sum.HostileRejected++
		}
		// Interleave a legitimate op: the flood must not starve it. The
		// final iteration always probes, so even a tiny flood measures
		// at least one bystander round trip.
		if i%10 == 5 || i == floods-1 {
			t0 := time.Now()
			if _, err := bystander.GetOnlinePeers(ctx, "plenary"); err != nil {
				sum.anomaly("bystander op failed mid-flood: %v", err)
			} else {
				bystanderLat = append(bystanderLat, time.Since(t0))
			}
		}
	}
	dur := time.Since(start)

	sum.DurationSec = dur.Seconds()
	if dur > 0 {
		sum.RoundsPerSec = float64(floods) / dur.Seconds()
	}
	// Delivered is the bystander's successful ops; its quantiles show
	// what the flood cost legitimate traffic.
	sum.Delivered = int64(len(bystanderLat))
	sum.P50DeliveryMS = quantileMS(bystanderLat, 0.50)
	sum.P99DeliveryMS = quantileMS(bystanderLat, 0.99)
	if accepted := s.br.Stats().AdvsPublished - advsBefore; accepted != 0 {
		sum.anomaly("%d hostile advertisements entered the cache", accepted)
	}
	finish(sum, s)
	return sum, nil
}

// slowSender degrades one peer's link (high latency, trickle
// bandwidth) while the whole population exchanges relayed rounds. The
// contract is isolation: the fast peers' traffic completes in full and
// their latency reflects their own links, not the slow peer's.
func slowSender(ctx context.Context, opt Options, profile simnet.LinkProfile) (*Summary, error) {
	n := opt.Clients
	if n <= 0 {
		n = 8
	}
	if n < 3 {
		n = 3
	}
	rounds := opt.Rounds
	if rounds <= 0 {
		rounds = 3
	}
	sum := &Summary{Scenario: "slow-sender", Profile: opt.Profile, Clients: n, Rounds: rounds,
		Drops: map[string]int64{}, Anomalies: []string{}}
	// Everyone stays online, but a recipient mid-drain can still queue
	// briefly; size the queues to the full round volume anyway.
	relayCfg := core.RelayConfig{}
	relayCfg.QueueCap = n*rounds + 16
	s, err := newStack(n, profile, nil, relayCfg, 0, opt)
	if err != nil {
		return nil, err
	}
	defer s.close()

	rec := newRecorder()
	clients := make([]*core.SecureClient, n)
	for i := 0; i < n; i++ {
		if clients[i], err = s.join(ctx, i, rec); err != nil {
			return nil, err
		}
	}
	// The last peer gets a degraded path to everyone, broker included.
	slow := clients[n-1]
	slowLink := simnet.LinkProfile{Latency: 60 * time.Millisecond, Jitter: 2 * time.Millisecond, Bandwidth: 100_000}
	s.net.SetLink(simnet.NodeID(slow.PeerID()), simnet.NodeID(s.br.PeerID()), slowLink)
	for i := 0; i < n-1; i++ {
		s.net.SetLink(simnet.NodeID(slow.PeerID()), simnet.NodeID(clients[i].PeerID()), slowLink)
	}

	start := time.Now()
	uploads := 0
	var wg sync.WaitGroup
	for i, sc := range clients {
		wg.Add(1)
		go func(i int, sc *core.SecureClient) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				text := fmt.Sprintf("round %d from %s", round, user(i))
				if _, _, err := sc.SecureMsgPeerGroupRelay(ctx, "plenary", text); err != nil {
					sum.anomaly("%s round %d upload: %v", user(i), round, err)
				}
			}
		}(i, sc)
	}
	wg.Wait()
	uploads = n * rounds

	expected := int64(uploads * (n - 1))
	waitFor(ctx, 60*time.Second, func() bool { return rec.count() >= expected })
	dur := time.Since(start)

	sum.DurationSec = dur.Seconds()
	if dur > 0 {
		sum.RoundsPerSec = float64(uploads) / dur.Seconds()
	}
	sum.Delivered = rec.count()
	sum.P50DeliveryMS, sum.P99DeliveryMS = deliveryQuantiles(opt.Registry)
	if got := rec.count(); got != expected {
		sum.anomaly("delivered %d of %d addressed slices", got, expected)
	}
	// Isolation check: deliveries from fast senders must all have
	// arrived; a fast sender held hostage by the slow peer's link shows
	// up as a shortfall here even when the totals eventually catch up.
	for i := 0; i < n-1; i++ {
		want := int64(rounds * (n - 1))
		if got := rec.bySender(clients[i].PeerID()); got != want {
			sum.anomaly("fast sender %s delivered %d of %d", user(i), got, want)
		}
	}
	finish(sum, s)
	return sum, nil
}

// joinResilient brings one client up behind the resilience wrapper:
// replay guard installed (relay redeliveries must collapse below the
// application), short per-call timeout (partitions should cost a
// retry, not a stall), heartbeat loop running against the broker's
// lease.
func (s *stack) joinResilient(ctx context.Context, i int, rcfg core.ResilientConfig) (*core.ResilientClient, error) {
	sc, err := s.client(i, core.WithReplayGuard(core.NewReplayGuard(time.Minute, 512)))
	if err != nil {
		return nil, err
	}
	sc.SetTimeout(500 * time.Millisecond)
	rc := core.NewResilientClient(sc, s.br.PeerID(), pw(i), rcfg)
	if err := rc.Connect(ctx); err != nil {
		return nil, fmt.Errorf("%s connect: %w", user(i), err)
	}
	s.onClose(rc.Close)
	return rc, nil
}

// churnRecorder counts opens per (recipient, sender, payload) so the
// summary can convict both directions of failure: a slice that never
// arrived and a slice that arrived twice.
type churnRecorder struct {
	mu    sync.Mutex
	total int64
	opens map[string]int
}

func newChurnRecorder() *churnRecorder {
	return &churnRecorder{opens: make(map[string]int)}
}

func (c *churnRecorder) watch(recipient int, bus *events.Bus) {
	bus.Subscribe(events.SecureMessage, func(e events.Event) {
		key := fmt.Sprintf("%d|%s|%s", recipient, e.From, e.Data)
		c.mu.Lock()
		c.total++
		c.opens[key]++
		c.mu.Unlock()
	})
}

func (c *churnRecorder) count() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

func (c *churnRecorder) opensOf(recipient int, from keys.PeerID, text string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.opens[fmt.Sprintf("%d|%s|%s", recipient, from, text)]
}

// partitionChurn is the liveness/resilience chaos scenario: the whole
// population exchanges relayed rounds while the director flaps
// partitions between clients and the broker, every client→broker
// uplink drops 5% of its frames, one partition is held long enough for
// the victims' presence leases to expire, and the relay is restarted
// mid-traffic on its WAL. The contract is exactly-once eventual
// delivery: every addressed slice arrives (resumed sessions drain
// their queues), none arrives twice (idempotent resubmission upstream,
// replay-guard collapse downstream), reconnect attempts stay inside
// the backoff-derived storm bound, and the audit chain verifies clean
// afterwards (CI runs `admin audit verify` on the journal).
func partitionChurn(ctx context.Context, opt Options, profile simnet.LinkProfile) (*Summary, error) {
	n := opt.Clients
	if n <= 0 {
		n = 6
	}
	if n < 4 {
		n = 4
	}
	rounds := opt.Rounds
	if rounds <= 0 {
		rounds = 4
	}
	const (
		leaseTTL = 2 * time.Second
		lossRate = 0.05
		flapDown = 700 * time.Millisecond // short flap: retries absorb it, no expiry
		sendGap  = 900 * time.Millisecond // spreads rounds across the churn timeline
	)
	pol := backoff.Policy{Base: 25 * time.Millisecond, Cap: 400 * time.Millisecond}
	// The retry budget must outlast the held partition: groupB is down
	// for its lease TTL plus a sweep plus the relay restart (~3s), and a
	// sender inside it keeps retrying the whole time. 25 attempts at
	// this policy sleep ~4.4s on average — comfortably past the outage —
	// while the 600ms attempt bound keeps a silently-lost frame (the 5%
	// loss) from eating the deadline before the first retry fires.
	rcfg := core.ResilientConfig{Backoff: pol, RetryBudget: 25, ResumeBudget: 8, Seed: 42,
		AttemptTimeout: 600 * time.Millisecond}
	sum := &Summary{Scenario: "partition-churn", Profile: opt.Profile, Clients: n, Rounds: rounds,
		Drops: map[string]int64{}, Anomalies: []string{}}
	relayCfg := core.RelayConfig{}
	relayCfg.QueueCap = n*rounds*2 + 32
	// Durable queues: the mid-traffic restart must find its backlog in
	// the WAL and rebuild it.
	walDir, err := os.MkdirTemp("", "partition-churn-wal-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)
	relayCfg.WAL.Dir = walDir
	s, err := newStack(n, profile, nil, relayCfg, leaseTTL, opt)
	if err != nil {
		return nil, err
	}
	defer s.close()
	brNode := s.br.NodeID()

	rec := newChurnRecorder()
	rclients := make([]*core.ResilientClient, n)
	// A client-side open that gives up on its sender lookup is a
	// permanently lost message — the relay already retired the slice —
	// so those alerts convict the run directly, with the reason in the
	// anomaly instead of just a shortfall in the exactly-once audit.
	var dropMu sync.Mutex
	var droppedOpens []string
	for i := 0; i < n; i++ {
		if rclients[i], err = s.joinResilient(ctx, i, rcfg); err != nil {
			return nil, err
		}
		rec.watch(i, rclients[i].Bus())
		who := user(i)
		rclients[i].Bus().Subscribe(events.SecurityAlert, func(e events.Event) {
			if e.Payload["reason"] == core.ErrSenderUnknown.Error() {
				dropMu.Lock()
				droppedOpens = append(droppedOpens, fmt.Sprintf("%s dropped a slice from %s: %s", who, e.From, e.Payload["reason"]))
				dropMu.Unlock()
			}
		})
	}
	node := func(i int) simnet.NodeID { return simnet.NodeID(rclients[i].PeerID()) }
	// 5% loss on every client→broker uplink, one-way by design: a lost
	// request or heartbeat is recoverable (timeout, retry under the
	// idempotency key), a lost broker→client push would be a silent
	// black hole no client policy could see.
	lossy := profile
	lossy.Loss = lossRate
	for i := 0; i < n; i++ {
		s.net.SetLinkOneWay(node(i), brNode, lossy)
	}

	// The victim sets: groupA rides two short flaps, groupB is held
	// down past its lease TTL (expiry, queueing, resume).
	third := n / 3
	if third < 1 {
		third = 1
	}
	var groupA, groupB []int
	for i := 0; i < third; i++ {
		groupA = append(groupA, i)
	}
	for i := third; i < 2*third; i++ {
		groupB = append(groupB, i)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				text := fmt.Sprintf("round %d from %s", round, user(i))
				if _, _, err := rclients[i].SendGroupRelay(ctx, "plenary", text); err != nil {
					sum.anomaly("%s round %d: %v", user(i), round, err)
				}
				time.Sleep(sendGap)
			}
		}(i)
	}

	// The churn director. Flap 1: a short partition mid-traffic.
	flap := func(victims []int, down time.Duration) {
		for _, i := range victims {
			s.net.Partition(node(i), brNode)
		}
		time.Sleep(down)
		for _, i := range victims {
			s.net.Heal(node(i), brNode)
		}
	}
	time.Sleep(300 * time.Millisecond)
	flap(groupA, flapDown)

	// Flap 2: groupB is held down until its leases lapse — the broker
	// takes the silent sessions' presence down and the relay flips to
	// queueing for them.
	expiredBefore := s.bs.LivenessStats().LeasesExpired
	for _, i := range groupB {
		s.net.Partition(node(i), brNode)
	}
	if !waitFor(ctx, 15*time.Second, func() bool {
		return s.bs.LivenessStats().LeasesExpired >= expiredBefore+uint64(len(groupB))
	}) {
		sum.anomaly("held partition expired %d leases, want >= %d",
			s.bs.LivenessStats().LeasesExpired-expiredBefore, len(groupB))
	}

	// Mid-traffic relay restart on the same WAL: the queued backlog —
	// including the expired peers' slices — must survive into the
	// recovered queues.
	queuedAtRestart := s.rly.QueuedTotal()
	s.rly.Close()
	rly2, rerr := core.EnableBrokerRelay(s.br, relayCfg)
	if rerr != nil {
		sum.anomaly("relay restart: %v", rerr)
	} else {
		s.rly = rly2
		s.onClose(rly2.Close)
		sum.RelayRecovered = int64(rly2.Metrics().RecoveryReplayed)
		if sum.RelayRecovered < int64(queuedAtRestart) {
			sum.anomaly("restart recovered %d of %d queued slices", sum.RelayRecovered, queuedAtRestart)
		}
	}
	for _, i := range groupB {
		s.net.Heal(node(i), brNode)
	}

	// Flap 3: one more short partition while the expired peers resume
	// and their queues drain.
	flap(groupA, flapDown)
	wg.Wait()

	// Convergence: every addressed slice delivered, queues empty. The
	// expired peers come back through their heartbeat loops (lease-lost
	// triggers a background resume), not through any scenario nudge.
	// A resume is counted only after its SecureLogin has returned, and
	// it is that login's flush which delivers the last queued slices:
	// delivery can be complete a moment before the counter moves. So
	// the wait also covers the liveness evidence asserted below — a
	// resume counted for every lease that expired.
	expected := int64(n*rounds) * int64(n-1)
	resumed := func() (total uint64) {
		for _, rc := range rclients {
			total += rc.Stats().Resumes
		}
		return total
	}
	waitFor(ctx, 90*time.Second, func() bool {
		return rec.count() >= expected && s.rly.QueuedTotal() == 0 &&
			resumed() >= s.bs.LivenessStats().LeasesExpired
	})
	dur := time.Since(start)

	sum.DurationSec = dur.Seconds()
	if dur > 0 {
		sum.RoundsPerSec = float64(n*rounds) / dur.Seconds()
	}
	sum.Delivered = rec.count()
	sum.P50DeliveryMS, sum.P99DeliveryMS = deliveryQuantiles(opt.Registry)

	// Exactly-once audit, both directions, per addressed slice.
	var missing int64
	for to := 0; to < n; to++ {
		for from := 0; from < n; from++ {
			if to == from {
				continue
			}
			for round := 0; round < rounds; round++ {
				text := fmt.Sprintf("round %d from %s", round, user(from))
				switch got := rec.opensOf(to, rclients[from].PeerID(), text); {
				case got == 0:
					missing++
					if missing <= 5 {
						sum.anomaly("never delivered: %q to %s", text, user(to))
					}
				case got > 1:
					sum.DuplicateOpens += int64(got - 1)
				}
			}
		}
	}
	if missing > 0 {
		sum.anomaly("%d of %d addressed slices never delivered", missing, expected)
	}
	dropMu.Lock()
	for _, d := range droppedOpens {
		sum.anomaly("%s", d)
	}
	dropMu.Unlock()
	if sum.DuplicateOpens > 0 {
		sum.anomaly("%d duplicate opens (exactly-once broken)", sum.DuplicateOpens)
	}
	if residual := s.rly.QueuedTotal(); residual != 0 {
		sum.anomaly("%d slices still queued after convergence window", residual)
	}

	// Liveness evidence: the scenario must actually have exercised
	// expiry and resume, and reconnects must stay inside the
	// backoff-derived storm bound — per outage a client can fit at most
	// MaxDelaysWithin(outage)+budget attempts, across 3 outages.
	ls := s.bs.LivenessStats()
	sum.HeartbeatsRenewed = int64(ls.HeartbeatsRenewed)
	sum.LeasesExpired = int64(ls.LeasesExpired)
	for _, rc := range rclients {
		st := rc.Stats()
		sum.Resumes += int64(st.Resumes)
		sum.ResumeAttempts += int64(st.ResumeAttempts)
		sum.Retries += int64(st.Retries)
	}
	sum.IdemDeduped = int64(s.br.Stats().IdemDeduped)
	if sum.LeasesExpired == 0 {
		sum.anomaly("no lease ever expired: the held partition proved nothing")
	}
	if sum.Resumes == 0 {
		sum.anomaly("no session ever resumed")
	}
	if sum.HeartbeatsRenewed == 0 {
		sum.anomaly("no heartbeat ever renewed a lease")
	}
	perOutage := int64(pol.MaxDelaysWithin(2*time.Second)) + int64(rcfg.ResumeBudget)
	storm := int64(n) * 3 * perOutage
	if sum.ResumeAttempts > storm {
		sum.anomaly("reconnect storm: %d resume attempts exceed the backoff bound %d", sum.ResumeAttempts, storm)
	}
	finishChurn(sum, s)
	return sum, nil
}

// finishChurn folds harness-wide evidence for a scenario whose network
// is HOSTILE by design: frames dropped by injected loss and partitions
// are the scenario working, so net-dropped is recorded as evidence but
// not flagged, unlike finish. Relay losses, rate-limit refusals and
// security alerts remain anomalies — churn never licenses shedding.
func finishChurn(sum *Summary, s *stack) {
	relayDrops(sum, s.rly.Metrics())
	sum.Drops["net-dropped"] = int64(s.net.Stats().Dropped)
	st := s.br.Stats()
	sum.Drops["rate-limited"] = int64(st.OpsRateLimited)
	if st.OpsRateLimited > 0 {
		sum.anomaly("%d operations rate-limited", st.OpsRateLimited)
	}
	sum.Alerts = s.alerts.Load()
	if sum.Alerts > 0 {
		sum.anomaly("%d security alerts raised", sum.Alerts)
	}
	if s.aud != nil {
		sum.AuditRecords = int64(s.aud.Stats().Records)
	}
}

// finish folds the harness-wide evidence (relay losses, network drops,
// security alerts, rate-limit refusals) into the summary.
func finish(sum *Summary, s *stack) {
	relayDrops(sum, s.rly.Metrics())
	ns := s.net.Stats()
	sum.Drops["net-dropped"] = int64(ns.Dropped)
	if ns.Dropped > 0 {
		sum.anomaly("%d frames dropped by the network", ns.Dropped)
	}
	st := s.br.Stats()
	sum.Drops["rate-limited"] = int64(st.OpsRateLimited)
	if st.OpsRateLimited > 0 {
		sum.anomaly("%d operations rate-limited", st.OpsRateLimited)
	}
	sum.Alerts = s.alerts.Load()
	if sum.Alerts > 0 {
		sum.anomaly("%d security alerts raised", sum.Alerts)
	}
	if s.aud != nil {
		sum.AuditRecords = int64(s.aud.Stats().Records)
	}
}
