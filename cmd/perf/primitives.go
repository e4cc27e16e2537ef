package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/relay"
	"jxtaoverlay/internal/relay/wal"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/xdsig"
	"jxtaoverlay/internal/xmldoc"
)

// inputs are the documents, keys and wires the primitive timings and
// the step-mode chains share. They come from the rig — real signed
// advertisements, real issued credentials — not from hand-made stand-ins.
type inputs struct {
	sender, rcpt *peer
	group        []*peer // the rig's 17 members, sender first
	rcptKeys     []*keys.PublicKey
	pipeDoc      *xmldoc.Element // rcpt's signed pipe advertisement, as the sender caches it
	pipeRaw      []byte
	header       []byte             // as long as a signed envelope header
	chain        []*cred.Credential // sender's credential chain, leaf first
	sealed       []byte             // a unicast envelope of the workload's body
	frame        []byte             // the endpoint frame that carries it
	round        *core.DetachedRound
	roundWire    []byte
}

func (l *layerRun) inputs(rig *built) *inputs {
	g := rig.wl.(*groupRelay)
	in := &inputs{sender: g.peers[0], rcpt: g.peers[1], group: g.peers}
	_, doc, err := in.sender.sc.LookupPipe(l.ctx, in.rcpt.id(), benchGroup)
	check(err)
	in.pipeDoc, in.pipeRaw = doc, doc.Canonical()
	in.header = in.pipeRaw[:min(len(in.pipeRaw), 300)]
	in.chain = in.sender.sc.Identity().Chain
	for _, p := range g.peers[1:] {
		in.rcptKeys = append(in.rcptKeys, p.kp.Public())
	}
	sealed := must(core.Seal(in.sender.kp, in.sender.id(), benchGroup, []byte(l.body), in.rcpt.kp.Public(), core.ModeFull))
	in.sealed = sealed.Bytes()
	in.frame = unicastFrame(in.sender.id(), in.rcpt.id(), in.sealed).Marshal()
	in.round = must(core.SealGroupDetached(in.sender.kp, in.sender.id(), benchGroup, []byte(l.round), in.rcptKeys))
	in.roundWire = in.round.Wire()
	return in
}

// unicastFrame is the message SecureMsgPeer puts on a pipe, with the
// three addressing elements the endpoint service stamps on every frame
// (their names are private to internal/endpoint; only their sizes
// matter to a marshal or parse timing).
func unicastFrame(from, to keys.PeerID, sealed []byte) *endpoint.Message {
	return endpoint.NewMessage().
		Add(proto.ElemEnvelope, sealed).
		AddString(proto.ElemGroup, benchGroup).
		AddString("jxta:src", string(from)).
		AddString("jxta:dst", string(to)).
		AddString("jxta:svc", "pipe")
}

// sliceFrame is the push that carries one slice to its recipient.
func sliceFrame(from, to keys.PeerID, slice []byte) *endpoint.Message {
	return endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpSliceDeliver).
		AddString(proto.ElemGroup, benchGroup).
		AddString(proto.ElemPeer, string(from)).
		Add(proto.ElemEnvelope, slice).
		AddString("jxta:src", string(from)).
		AddString("jxta:dst", string(to)).
		AddString("jxta:svc", proto.ClientService)
}

// wirePair is a two-node fabric for timing sends outside any deployment.
type wirePair struct {
	net      *simnet.Network
	a, b     simnet.NodeID
	received chan struct{}
}

func newWirePair() *wirePair {
	w := &wirePair{net: simnet.NewNetwork(simnet.ProfileLocal), a: "perf-a", b: "perf-b", received: make(chan struct{}, 1)}
	check(w.net.Attach(w.a, func(simnet.Packet) {}))
	check(w.net.Attach(w.b, func(simnet.Packet) { w.received <- struct{}{} }))
	return w
}

// deliver sends frame and waits for the receiving handler to run: the
// fabric's copy, its goroutine and the hand-over.
func (w *wirePair) deliver(frame []byte) {
	check(w.net.Send(w.a, w.b, frame))
	<-w.received
}

// primitives times every layer's public entry points on the rig's
// inputs. Repetition counts keep each timing near 30 ms.
func (l *layerRun) primitives(rig *built, in *inputs) {
	m := l.m
	now := time.Now()
	e := rig.env
	body := []byte(l.body)
	bulk := len(body) > 64<<10
	reps := func(n int) int {
		if bulk {
			n /= 4
		}
		return scaled(l.cfg, n)
	}

	// keys
	header := in.header
	sig := must(in.sender.kp.Sign(header))
	m["keys.sign_us"] = timeIt(scaled(l.cfg, 64), func() { must(in.sender.kp.Sign(header)) })
	m["keys.verify_us"] = timeIt(scaled(l.cfg, 200), func() { check(in.sender.kp.Public().Verify(header, sig)) })
	cek := must(keys.NewContentKey())
	wrapped := must(in.rcpt.kp.Public().WrapKey(cek))
	m["keys.wrap_us"] = timeIt(scaled(l.cfg, 200), func() { must(in.rcpt.kp.Public().WrapKey(cek)) })
	m["keys.unwrap_us"] = timeIt(scaled(l.cfg, 64), func() { must(in.rcpt.kp.UnwrapKey(wrapped)) })
	nonce, ct, err := keys.AEADSeal(cek, body)
	check(err)
	m["keys.aead_seal_us"] = timeIt(reps(200), func() { _, _, err := keys.AEADSeal(cek, body); check(err) })
	m["keys.aead_open_us"] = timeIt(reps(200), func() { must(keys.AEADOpen(cek, nonce, ct)) })

	// xmldoc
	m["xmldoc.parse_canonical_us"] = timeIt(scaled(l.cfg, 200), func() { must(xmldoc.ParseCanonical(in.pipeRaw)) })
	m["xmldoc.parse_allocs"], _ = allocsOf(scaled(l.cfg, 100), func() { must(xmldoc.ParseCanonical(in.pipeRaw)) })
	m["xmldoc.canonical_cold_us"] = timeEach(scaled(l.cfg, 100),
		func(int) *xmldoc.Element { return must(xmldoc.ParseBytes(in.pipeRaw)) }, // the general parser seeds no memo
		func(d *xmldoc.Element) { d.Canonical() })

	// xdsig, cred
	freshAdv := func(i int) *xmldoc.Element {
		adv := &advert.Pipe{PipeID: fmt.Sprintf("urn:jxta:pipe-perf%08d", i), PipeType: advert.PipeUnicast,
			Name: "msg/" + benchGroup, PeerID: in.sender.id(), Group: benchGroup}
		return must(adv.Document())
	}
	m["xdsig.sign_us"] = timeEach(scaled(l.cfg, 64), freshAdv, func(d *xmldoc.Element) { check(xdsig.Sign(d, in.sender.kp, in.chain...)) })
	type coldInput struct {
		doc *xmldoc.Element
		ts  *cred.TrustStore
	}
	cold := func(int) coldInput {
		return coldInput{must(xmldoc.ParseCanonical(in.pipeRaw)), must(e.dep.TrustStore())}
	}
	m["xdsig.verify_cold_us"] = timeEach(scaled(l.cfg, 64), cold, func(c coldInput) { must(xdsig.VerifyTrusted(c.doc, c.ts, now)) })
	vc := in.sender.sc.VerifyCache()
	must(vc.VerifyTrusted(in.pipeDoc, now))
	m["xdsig.verify_warm_us"] = timeIt(scaled(l.cfg, 500), func() { must(vc.VerifyTrusted(in.pipeDoc, now)) })
	m["cred.issue_us"] = timeIt(scaled(l.cfg, 64), func() {
		must(cred.Issue(e.brKP, e.brCred.Subject, in.rcpt.id(), in.rcpt.alias, cred.RoleClient, in.rcpt.kp.Public(), time.Hour))
	})
	m["cred.verify_chain_us"] = timeEach(scaled(l.cfg, 64), cold, func(c coldInput) { check(c.ts.VerifyChain(now, in.chain...)) })

	// discovery, client lookups
	cache := in.sender.sc.Cache()
	want := in.rcpt.id()
	m["discovery.find_pipe_us"] = timeIt(scaled(l.cfg, 500), func() {
		cache.Find(advert.TypePipe, func(a advert.Advertisement) bool {
			p := a.(*advert.Pipe)
			return p.PeerID == want && p.Group == benchGroup
		})
	})
	m["client.lookup_pipe_warm_us"] = timeIt(scaled(l.cfg, 500), func() {
		_, _, err := in.sender.sc.LookupPipe(l.ctx, want, benchGroup)
		check(err)
	})

	// endpoint, simnet
	msg := must(endpoint.ParseMessage(in.frame))
	m["endpoint.marshal_us"] = timeIt(reps(500), func() { msg.Marshal() })
	m["endpoint.parse_us"] = timeIt(reps(500), func() { must(endpoint.ParseMessage(in.frame)) })
	payload := 0
	for _, el := range msg.Elements {
		payload += len(el.Data)
	}
	m["endpoint.framing_overhead_ratio"] = 1 - float64(payload)/float64(len(in.frame))
	_, m["endpoint.alloc_kb_per_msg"] = allocsOf(reps(100), func() { must(endpoint.ParseMessage(msg.Marshal())) })
	wire := newWirePair()
	defer wire.net.Close()
	m["simnet.send_us"] = timeIt(reps(300), func() { wire.deliver(in.frame) })

	// core: each envelope call is timed with the primitives it makes
	// beside it, so that its self time is a per-iteration difference.
	kpS, kpR := in.sender.kp, in.rcpt.kp
	sign := func() { must(kpS.Sign(header)) }
	wrap := func() { must(kpR.Public().WrapKey(cek)) }
	unwrap := func() { must(kpR.UnwrapKey(wrapped)) }
	verify := func() { check(kpS.Public().Verify(header, sig)) }
	aeadSeal := func() { _, _, err := keys.AEADSeal(cek, body); check(err) }
	aeadOpen := func() { must(keys.AEADOpen(cek, nonce, ct)) }
	m["core.seal_us"], m["core.seal_self_us"] = together(reps(64), func() {
		must(core.Seal(kpS, in.sender.id(), benchGroup, body, kpR.Public(), core.ModeFull))
	}, sign, wrap, aeadSeal)
	m["core.open_us"], m["core.open_self_us"] = together(reps(64), func() {
		o := must(core.Open(kpR, in.sealed))
		check(o.VerifySignature(kpS.Public()))
	}, unwrap, aeadOpen, verify)
	roundBody := []byte(l.round)
	m["core.seal_group_us"] = timeIt(scaled(l.cfg, 32), func() {
		must(core.SealGroupDetached(kpS, in.sender.id(), benchGroup, roundBody, in.rcptKeys))
	})
	m["core.slice_round_us"] = timeIt(scaled(l.cfg, 100), func() { must(core.SliceRound(in.roundWire)).Slice(0) })
	slice := in.round.Slice(0)
	rnonce, rct, err := keys.AEADSeal(cek, roundBody)
	check(err)
	m["core.open_slice_us"], m["core.open_slice_self_us"] = together(scaled(l.cfg, 64), func() {
		o := must(core.OpenSlice(kpR, slice, nil))
		check(o.VerifySignature(kpS.Public()))
	}, unwrap, func() { must(keys.AEADOpen(cek, rnonce, rct)) }, verify)
	m["core.wire_bytes_per_recipient"] = float64(len(slice))
	guard := core.NewReplayGuard(0, 0)
	fillReplayGuard(guard, "perf-guard")
	m["core.replay_check_us"] = timeEach(scaled(l.cfg, 300),
		func(i int) []byte { return []byte(fmt.Sprintf("perf-guard-probe/%07d", i)) },
		func(w []byte) { check(guard.Check(w, now)) })

	// userdb, admission, audit
	m["userdb.authenticate_us"] = timeIt(scaled(l.cfg, 24), func() {
		must(e.db.Authenticate(in.rcpt.alias, peerPassword(in.rcpt.alias)))
	})
	who := string(in.sender.id())
	m["admission.allow_us"] = timeIt(scaled(l.cfg, 2000), func() { e.adm.Allow(who) })
	ev := audit.Event{Kind: audit.KindLogin, Peer: who, Op: proto.OpSecureLogin, Reason: "ok"}
	m["audit.record_us"] = timeIt(scaled(l.cfg, 1000), func() { e.aud.Record(ev) })

	l.walTimings(slice, in)
	l.relayTimings(slice, in, wire)
}

// walTimings times a stand-alone log with the run's settings.
func (l *layerRun) walTimings(slice []byte, in *inputs) {
	dir := l.scratchDir("wal-micro")
	log, _, _, err := wal.Open(wal.Options{Dir: dir, SyncInterval: stagedSync})
	check(err)
	defer log.Close()
	rec := wal.Record{To: in.rcpt.id(), From: in.sender.id(), Group: benchGroup, Payload: slice, Expires: time.Now().Add(time.Minute)}
	n := scaled(l.cfg, 300)
	seqs := make([]wal.Seq, 0, n)
	l.m["wal.append_add_us"] = timeIt(n, func() { seqs = append(seqs, must(log.AppendAdd(rec))) })
	check(log.Sync())
	l.m["wal.bytes_per_slice"] = float64(dirSize(dir)) / float64(n)
	l.m["wal.sync_us"] = timeEach(scaled(l.cfg, 20),
		func(int) struct{} {
			for i := 0; i < 8; i++ {
				seqs = append(seqs, must(log.AppendAdd(rec)))
			}
			return struct{}{}
		},
		func(struct{}) { check(log.Sync()) })
	i := 0
	l.m["wal.append_ack_us"] = timeIt(n, func() { check(log.AppendAck(seqs[i], wal.AckDelivered)); i++ })
}

func dirSize(dir string) int64 {
	var total int64
	entries, err := os.ReadDir(dir)
	check(err)
	for _, en := range entries {
		if info, err := en.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// relayTimings times a stand-alone relay built with the run's
// configuration, its delivery hook doing what the broker's does: frame
// the slice and put it on the fabric.
func (l *layerRun) relayTimings(slice []byte, in *inputs, wire *wirePair) {
	var online atomic.Bool
	var delivered atomic.Int64
	cfg := relay.Config{QueueCap: relayQueueCap}
	cfg.WAL.Dir = l.scratchDir("relay-micro")
	cfg.WAL.SyncInterval = stagedSync
	r, err := relay.New(cfg, func(keys.PeerID) bool { return online.Load() }, func(it relay.Item) error {
		wire.deliver(sliceFrame(it.From, it.To, it.Payload).Marshal())
		delivered.Add(1)
		return nil
	})
	check(err)
	defer r.Close()
	item := relay.Item{To: in.rcpt.id(), From: in.sender.id(), Group: benchGroup, Payload: slice}
	n := scaled(l.cfg, 300)
	online.Store(true)
	l.m["relay.submit_direct_us"] = timeIt(n, func() { r.Submit(item) })
	online.Store(false)
	l.m["relay.submit_queued_us"] = timeIt(n, func() { r.Submit(item) })
	queued, before := r.QueueLen(item.To), delivered.Load()
	online.Store(true)
	t0 := time.Now()
	r.Flush(item.To)
	for deadline := t0.Add(opTimeout); delivered.Load() < before+int64(queued) && time.Now().Before(deadline); {
		time.Sleep(50 * time.Microsecond)
	}
	l.m["relay.flush_us_per_slice"] = float64(time.Since(t0).Microseconds()) / float64(max(queued, 1))
}
