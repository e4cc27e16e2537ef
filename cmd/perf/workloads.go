package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
)

const (
	flows     = 2  // closed-loop generators, one op in flight each
	windows   = 20 // timed windows per run, each a fixed op count
	warmupOps = 20 // ops per flow before the first window
	// canaryPerFlow is how many canary samples each flow takes per
	// window, spread evenly between its ops.
	canaryPerFlow = 16
	groupPeers    = 17 // group-relay and offline-drain: 2 senders among 17 members
	offlineSet    = 8  // offline-drain: recipients logged out during a cycle
	residents     = 16 // join-churn: peers that stay online and receive the presence fan-out
	churnPool     = 64 // join-churn: identities the two flows cycle through
	// maxRingBytes bounds the bodies one flow keeps; a window with more
	// ops than bodies reuses them in order.
	maxRingBytes = 2 << 20
)

// spec is one workload: its shape and its op count at the reference
// run length of 10 s (counts scale with -seconds; the 20-window
// protocol never does).
type spec struct {
	name string
	why  string
	// opsPerWindow is generator ops per window at -seconds 10, both
	// flows together.
	opsPerWindow int
	// deliveriesPerOp is how many verified deliveries one generator op
	// stands for; every per-op metric divides by deliveries.
	deliveriesPerOp int
	bodyBytes       int
	// aluShare is how far the workload's time follows the canary's
	// ALU-bound yardstick rather than its memory-bound one (canary.go):
	// the exponent of the signature in the workload's tick.
	aluShare float64
	build    func(r *runCtx) workload
}

var specs = []spec{
	{
		name:         "unicast",
		why:          "secureMsgPeer at 64 B: per-message cost (sign, wrap, unwrap, verify, envelope) is everything; broker, relay and WAL do nothing",
		opsPerWindow: 800, deliveriesPerOp: 1, bodyBytes: 64, aluShare: 0.85,
		build: func(r *runCtx) workload { return &unicast{runCtx: r} },
	},
	{
		name:         "unicast-bulk",
		why:          "secureMsgPeer at 256 KiB: per-byte cost dominates (framing, fabric copies, AEAD, digest); a zero-copy change shows here, an RSA change on unicast",
		opsPerWindow: 250, deliveriesPerOp: 1, bodyBytes: 256 << 10, aluShare: 0.65,
		build: func(r *runCtx) workload { return &unicast{runCtx: r} },
	},
	{
		name:         "group-relay",
		why:          "secureMsgPeerGroup through the relay, 17 members all online: one signature, broker slicing, 16 direct pushes, 16 opens racing for 2 cores; WAL idle",
		opsPerWindow: 60, deliveriesPerOp: groupPeers - 1, bodyBytes: 1 << 10, aluShare: 0.70,
		build: func(r *runCtx) workload { return &groupRelay{runCtx: r} },
	},
	{
		name:         "offline-drain",
		why:          "the same relay used the other way: 8 of 16 recipients offline, so quota, WAL append, queue, login flush, ack and compaction carry weight",
		opsPerWindow: 50, deliveriesPerOp: groupPeers - 1, bodyBytes: 1 << 10, aluShare: 0.70,
		build: func(r *runCtx) workload { return &groupRelay{runCtx: r, drain: true} },
	},
	{
		name:         "join-churn",
		why:          "the paper's headline: client boot, secureConnection, secureLogin, logout, close over a 64-identity pool beside 16 residents; messaging layers idle",
		opsPerWindow: 120, deliveriesPerOp: 1, bodyBytes: 0, aluShare: 0.55,
		build: func(r *runCtx) workload { return &joinChurn{runCtx: r} },
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// runCtx is what a workload instance needs from its run.
type runCtx struct {
	spec spec
	seed int64
	// opsPerFlow is generator ops per flow per window.
	opsPerFlow int
	env        *env
	canary     *canary
	// nflows is how many of the flows generate; the per-layer pass sets
	// it to 1 for its single-flow measurements.
	nflows int
}

// windowResult is what one window's generators saw. Time, CPU, memory
// and bytes are measured around the window by the harness.
type windowResult struct {
	lat        []time.Duration // latency of each generator op that succeeded
	attempted  int             // generator ops
	failed     int             // ops that errored, timed out or were not verified
	deliveries int             // verified deliveries
	detail     string          // first failure, for the report
	// samples are the canary timings the flows took between their ops
	// during this window.
	samples []sample
	// queuedPeak is the relay's backlog when it was deepest (offline-drain).
	queuedPeak int
}

// user is one entry of the deployment's user database.
type user struct {
	alias  string
	groups []string
}

// firstUsers is fixture identities peer000…peer<n-1>, all in benchGroup;
// the seed decides which of them plays which part.
func firstUsers(n int) []user {
	out := make([]user, n)
	for i := range out {
		out[i] = user{peerAlias(i), []string{benchGroup}}
	}
	return out
}

// workload is one traffic shape on a built environment.
type workload interface {
	// users lists who the user database must hold; the environment is
	// built from it before setup runs.
	users() []user
	// setup joins the workload's peers on r.env and completes the
	// warm-up (warmupOps per flow).
	setup(ctx context.Context) error
	// window runs timed window w and returns when every delivery it
	// caused has been verified (or has timed out).
	window(ctx context.Context, w int) windowResult
	// trackers exposes in-flight ops to the watchdog.
	trackers() []*tracker
}

// runFlows runs n ops on each flow, closed loop, and collects latency.
// op returns the verified deliveries it caused. Between ops, every
// few ops (canaryPerFlow times a window), the flow takes one canary
// sample.
func (r *runCtx) runFlows(n int, op func(flow, seq int) (int, error)) windowResult {
	every := max(1, (n+canaryPerFlow-1)/canaryPerFlow)
	var (
		mu  sync.Mutex
		res = windowResult{lat: make([]time.Duration, 0, flows*n)}
		wg  sync.WaitGroup
	)
	for f := 0; f < r.nflows; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, n)
			samples := make([]sample, 0, n/every+1)
			delivered, failed := 0, 0
			var first error
			for seq := 0; seq < n; seq++ {
				if r.canary != nil && seq%every == every/2 {
					samples = append(samples, r.canary.sample())
				}
				t0 := time.Now()
				d, err := op(f, seq)
				if err != nil {
					failed++
					if first == nil {
						first = err
					}
					continue
				}
				lat = append(lat, time.Since(t0))
				delivered += d
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			res.samples = append(res.samples, samples...)
			res.attempted += n
			res.failed += failed
			res.deliveries += delivered
			if first != nil && res.detail == "" {
				res.detail = fmt.Sprintf("flow %d: %v", f, first)
			}
			mu.Unlock()
		}(f)
	}
	wg.Wait()
	return res
}

// ringSize is how many bodies a flow keeps for windows of ops ops.
func ringSize(ops, bodyBytes int) int {
	n := maxRingBytes / max(bodyBytes, 1)
	return max(1, min(ops, n))
}

// applyTrackers folds what the trackers saw into the window result: a
// delivery that was wrong in any way fails an op.
func applyTrackers(res *windowResult, ts []*tracker) {
	res.deliveries = 0
	for f, t := range ts {
		c := t.counts()
		res.deliveries += c.delivered
		if bad := c.duplicate + c.unexpected + c.corrupt + c.pending; bad > 0 {
			res.failed = min(res.attempted, res.failed+bad)
			if res.detail == "" {
				res.detail = fmt.Sprintf("flow %d: %d duplicate, %d unexpected, %d corrupt, %d never opened",
					f, c.duplicate, c.unexpected, c.corrupt, c.pending)
			}
		}
	}
}

// subscribe routes recipient's SecureMessage events to the trackers.
func subscribe(p *peer, recipient int, ts []*tracker) {
	p.sc.Bus().Subscribe(events.SecureMessage, func(e events.Event) {
		flow, ring, ok := parseBodyHeader(e.Data)
		if !ok || flow >= len(ts) || e.Attr("authenticated") != "true" {
			ts[0].mu.Lock()
			ts[0].corrupt++
			ts[0].mu.Unlock()
			return
		}
		ts[flow].deliver(recipient, ring, e.Data)
	})
}

// --- unicast, unicast-bulk ---

// unicast is two independent sender→recipient pairs: flow f's sender
// calls SecureMsgPeer and the op completes when its recipient raises
// SecureMessage with the body sent.
type unicast struct {
	*runCtx
	senders    [flows]*peer
	recipients [flows]*peer
	ts         []*tracker
}

func (u *unicast) trackers() []*tracker { return u.ts }
func (u *unicast) users() []user        { return firstUsers(2 * flows) }

func (u *unicast) setup(ctx context.Context) error {
	rng := newRand(u.seed)
	// The seed picks which fixture identities play which role.
	order := rng.Perm(2 * flows)
	aliases := make([]string, 2*flows)
	for i, j := range order {
		aliases[i] = peerAlias(j)
	}
	peers, err := u.env.residents(ctx, aliases)
	if err != nil {
		return err
	}
	for f := 0; f < flows; f++ {
		u.senders[f], u.recipients[f] = peers[f], peers[flows+f]
		u.ts = append(u.ts, newTracker(makeBodies(rng, f, ringSize(max(u.opsPerFlow, warmupOps), u.spec.bodyBytes), u.spec.bodyBytes)))
	}
	for f := 0; f < flows; f++ {
		subscribe(u.recipients[f], 0, u.ts)
		fillReplayGuard(u.recipients[f].guard, u.recipients[f].alias)
	}
	return warmup(1, func(n int) windowResult { return u.run(ctx, n) })
}

func (u *unicast) run(ctx context.Context, n int) windowResult {
	for _, t := range u.ts {
		t.reset(n, 1, nil)
	}
	res := u.runFlows(n, func(f, seq int) (int, error) {
		t := u.ts[f]
		body := t.begin(seq, time.Now(), 1, 1)
		defer t.park()
		if err := u.senders[f].sc.SecureMsgPeer(ctx, u.recipients[f].id(), benchGroup, body); err != nil {
			return 0, err
		}
		if !t.wait(seq) {
			return 0, errors.New("delivery timed out")
		}
		return 1, nil
	})
	applyTrackers(&res, u.ts)
	return res
}

func (u *unicast) window(ctx context.Context, _ int) windowResult { return u.run(ctx, u.opsPerFlow) }

// warmup runs warmupOps per flow and insists they all verify.
func warmup(perOp int, run func(n int) windowResult) error {
	res := run(warmupOps)
	if res.failed > 0 || res.deliveries != flows*warmupOps*perOp {
		return fmt.Errorf("warm-up: %d of %d ops failed, %d deliveries (%s)", res.failed, res.attempted, res.deliveries, res.detail)
	}
	return nil
}

// --- group-relay, offline-drain ---

// groupRelay is 17 members of one group; flow f's sender uploads one
// round per op through the broker relay. With drain set, each window
// is a whole offline cycle (see window).
type groupRelay struct {
	*runCtx
	drain   bool
	peers   []*peer // peers[0:flows] are the senders
	offline []int   // drain: indexes into peers logged out during a cycle
	online  []bool  // drain: per peer, true when it stays online
	ts      []*tracker
}

func (g *groupRelay) trackers() []*tracker { return g.ts }
func (g *groupRelay) users() []user        { return firstUsers(groupPeers) }

func (g *groupRelay) setup(ctx context.Context) error {
	rng := newRand(g.seed)
	order := rng.Perm(groupPeers)
	aliases := make([]string, groupPeers)
	for i, j := range order {
		aliases[i] = peerAlias(j)
	}
	var err error
	if g.peers, err = g.env.residents(ctx, aliases); err != nil {
		return err
	}
	for f := 0; f < flows; f++ {
		g.ts = append(g.ts, newTracker(makeBodies(rng, f, ringSize(max(g.opsPerFlow, warmupOps), g.spec.bodyBytes), g.spec.bodyBytes)))
	}
	for i, p := range g.peers {
		subscribe(p, i, g.ts)
		fillReplayGuard(p.guard, p.alias)
	}
	if g.drain {
		// The seed picks which 8 of the 15 non-senders go offline.
		g.online = make([]bool, groupPeers)
		for i := range g.online {
			g.online[i] = true
		}
		for _, k := range rng.Perm(groupPeers - flows)[:offlineSet] {
			g.offline = append(g.offline, flows+k)
			g.online[flows+k] = false
		}
	}
	return warmup(groupPeers-1, func(n int) windowResult { return g.rounds(ctx, n, nil) })
}

// rounds sends n rounds per flow. awaited marks the recipients whose
// open completes a round (nil: all 16).
func (g *groupRelay) rounds(ctx context.Context, n int, awaited []bool) windowResult {
	wantDirect := groupPeers - 1
	if awaited != nil {
		wantDirect -= len(g.offline)
	}
	for _, t := range g.ts {
		t.reset(n, groupPeers, awaited)
	}
	res := g.runFlows(n, func(f, seq int) (int, error) {
		t := g.ts[f]
		body := t.begin(seq, time.Now(), groupPeers-1, wantDirect)
		defer t.park()
		direct, queued, err := g.peers[f].sc.SecureMsgPeerGroupRelay(ctx, benchGroup, body)
		if err != nil {
			return 0, err
		}
		if direct != wantDirect || direct+queued != groupPeers-1 {
			return 0, fmt.Errorf("round reached %d direct + %d queued, want %d + %d", direct, queued, wantDirect, groupPeers-1-wantDirect)
		}
		if !t.wait(seq) {
			return 0, errors.New("round timed out")
		}
		return groupPeers - 1, nil
	})
	if awaited == nil {
		applyTrackers(&res, g.ts)
	}
	return res
}

// window is one window of rounds; for offline-drain one whole cycle:
// 8 recipients log out, both flows send (8 direct + 8 queued per
// round), the 8 come back two at a time, and the window ends when
// every queued slice has been opened and the relay holds nothing.
func (g *groupRelay) window(ctx context.Context, _ int) windowResult {
	if !g.drain {
		return g.rounds(ctx, g.opsPerFlow, nil)
	}
	fail := func(res windowResult, err error) windowResult {
		res.failed = max(res.failed, 1)
		res.attempted = max(res.attempted, 1)
		if res.detail == "" {
			res.detail = err.Error()
		}
		return res
	}
	for _, i := range g.offline {
		if err := g.peers[i].sc.Logout(ctx); err != nil {
			return fail(windowResult{}, fmt.Errorf("%s logout: %w", g.peers[i].alias, err))
		}
	}
	res := g.rounds(ctx, g.opsPerFlow, g.online)
	res.queuedPeak = g.env.rly.QueuedTotal()
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		joinErr error
	)
	for f := 0; f < flows; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for k := f; k < len(g.offline); k += flows {
				if err := g.env.join(ctx, g.peers[g.offline[k]]); err != nil {
					mu.Lock()
					joinErr = err
					mu.Unlock()
				}
			}
		}(f)
	}
	wg.Wait()
	if joinErr != nil {
		return fail(res, joinErr)
	}
	for _, t := range g.ts {
		t.waitDrained()
	}
	deadline := time.Now().Add(opTimeout)
	for g.env.rly.QueuedTotal() != 0 && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	if q := g.env.rly.QueuedTotal(); q != 0 {
		res = fail(res, fmt.Errorf("%d slices still queued after the drain", q))
	}
	applyTrackers(&res, g.ts)
	return res
}

// --- join-churn ---

// joinChurn cycles identities through a whole client lifetime beside
// 16 resident peers: client.New, NewSecureClient, SecureConnection,
// SecureLogin, Logout, Close. One completed cycle is one delivery.
//
// Flow f's identities belong to group churn<f> and to nothing else;
// the residents belong to both groups. Every join and every logout so
// fans out to the 16 residents, and no push is ever addressed to a
// churning peer. That is what lets Close follow Logout at once: the
// fabric delivers each packet on a goroutine of its own, which under
// two busy flows can run milliseconds late, and it counts a packet to
// a node that has since detached as dropped — which no run tolerates.
type joinChurn struct {
	*runCtx
	pool [flows][]churnID
	next [flows]int
}

type churnID struct {
	alias string
	kp    *keys.KeyPair
}

func churnGroup(flow int) string { return fmt.Sprintf("churn%d", flow) }

func (j *joinChurn) trackers() []*tracker { return nil }

// poolOrder is the seed's order of the churn pool; position i goes to
// flow i%flows, so no identity is ever live twice.
func (j *joinChurn) poolOrder() []int { return newRand(j.seed).Perm(churnPool) }

func (j *joinChurn) users() []user {
	var both []string
	for f := 0; f < flows; f++ {
		both = append(both, churnGroup(f))
	}
	out := make([]user, 0, residents+churnPool)
	for i := 0; i < residents; i++ {
		out = append(out, user{peerAlias(i), both})
	}
	for i, k := range j.poolOrder() {
		out = append(out, user{peerAlias(residents + k), []string{churnGroup(i % flows)}})
	}
	return out
}

func (j *joinChurn) setup(ctx context.Context) error {
	aliases := make([]string, residents)
	for i := range aliases {
		aliases[i] = peerAlias(i)
	}
	if _, err := j.env.residents(ctx, aliases); err != nil {
		return err
	}
	for i, k := range j.poolOrder() {
		alias := peerAlias(residents + k)
		kp, err := loadKey(alias)
		if err != nil {
			return err
		}
		j.pool[i%flows] = append(j.pool[i%flows], churnID{alias, kp})
	}
	res := j.run(ctx, warmupOps)
	if res.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d joins failed (%s)", res.failed, res.attempted, res.detail)
	}
	return nil
}

func (j *joinChurn) run(ctx context.Context, n int) windowResult {
	return j.runFlows(n, func(f, _ int) (int, error) {
		id := j.pool[f][j.next[f]%len(j.pool[f])]
		j.next[f]++
		p, err := j.env.newPeer(id.alias, id.kp)
		if err != nil {
			return 0, err
		}
		defer p.sc.Close()
		if err := j.env.join(ctx, p); err != nil {
			return 0, err
		}
		if err := p.sc.Logout(ctx); err != nil {
			return 0, fmt.Errorf("%s logout: %w", id.alias, err)
		}
		return 1, nil
	})
}

func (j *joinChurn) window(ctx context.Context, _ int) windowResult { return j.run(ctx, j.opsPerFlow) }
