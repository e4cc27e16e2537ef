package main

import (
	"fmt"
	"strings"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/xdsig"
	"jxtaoverlay/internal/xmldoc"
)

// Step mode is the traced pass's outside view of one op. The harness
// makes, one after another and on one goroutine, the same public calls
// the client and the broker make for the workload's op, each wrapped in
// a span. Under a span, the primitives it is known to call are run
// again on the same inputs as child spans; a span's self time is its
// duration minus its children's. The sum of an op's top-level spans,
// set against the single-flow latency of the live op, is the cost
// stack's coverage: what the outside view can account for.

// chain is one workload's op in step mode.
type chain interface {
	step(op int) // records one op's spans
	close()
}

// newChain picks the chain that matches the workload.
func (l *layerRun) newChain(rig *built, in *inputs) chain {
	switch {
	case l.cfg.spec.deliveriesPerOp > 1:
		return l.newRelayChain(rig, in)
	case l.cfg.spec.bodyBytes == 0:
		return l.newJoinChain(rig)
	default:
		return l.newUnicastChain(in)
	}
}

// stackMetrics derives the stack metrics from the recorded spans and
// the single-flow latency of the live op.
func (l *layerRun) stackMetrics() {
	serial := l.spans.perOp(func(s span) bool { return s.Parent == 0 && s.Layer != "recipient" })
	// A round's 16 opens run on the recipients' goroutines, two at a
	// time: the blocking chain holds half of them.
	opens := l.spans.perOp(func(s span) bool { return s.Parent == 0 && s.Layer == "recipient" })
	children := l.spans.perOp(func(s span) bool { return s.Parent != 0 })
	top := serial + opens
	rsa := func(names ...string) float64 {
		return l.spans.perOp(func(s span) bool {
			if s.Parent == 0 || s.Layer != "keys" {
				return false
			}
			for _, n := range names {
				if s.Name == n {
					return true
				}
			}
			return false
		})
	}
	l.m["stack.coverage_ratio"] = ratio(serial+opens/flows, l.singleP50)
	l.m["stack.unattributed_share"] = 1 - ratio(children, top)
	l.m["stack.rsa_private_share"] = ratio(rsa("sign", "unwrap"), top)
	l.m["keys.rsa_share"] = ratio(rsa("sign", "unwrap", "verify", "wrap"), top)
}

// The unicast chain is SecureMsgPeer and its delivery: resolve and verify the
// recipient's advertisement, seal, frame, send, parse, open, resolve
// and verify the sender's advertisement, verify, replay check.
type unicastChain struct {
	l     *layerRun
	in    *inputs
	wire  *wirePair
	guard *core.ReplayGuard
	cek   []byte
}

func (l *layerRun) newUnicastChain(in *inputs) *unicastChain {
	c := &unicastChain{l: l, in: in, wire: newWirePair(), guard: core.NewReplayGuard(0, 0), cek: must(keys.NewContentKey())}
	fillReplayGuard(c.guard, "step-guard")
	return c
}

func (c *unicastChain) close() { c.wire.net.Close() }

func (c *unicastChain) step(op int) {
	l, in, wire, guard, cek := c.l, c.in, c.wire, c.guard, c.cek
	ctx, now := l.ctx, time.Now()
	body := []byte(l.body)
	kpS, kpR := in.sender.kp, in.rcpt.kp
	sp := l.spans
	var rcptDoc *xmldoc.Element
	id := sp.do(op, 0, "client", "resolve_recipient", func() {
		_, rcptDoc, _ = in.sender.sc.LookupPipe(ctx, in.rcpt.id(), benchGroup)
		must(in.sender.sc.VerifyCache().VerifyTrusted(rcptDoc, now))
	})
	sp.do(op, id, "discovery", "find_pipe", func() { in.sender.sc.LookupPipe(ctx, in.rcpt.id(), benchGroup) })
	sp.do(op, id, "xdsig", "verify_warm", func() { in.sender.sc.VerifyCache().VerifyTrusted(rcptDoc, now) })

	var sealed *core.Sealed
	id = sp.do(op, 0, "core", "seal", func() {
		sealed = must(core.Seal(kpS, in.sender.id(), benchGroup, body, kpR.Public(), core.ModeFull))
	})
	sp.do(op, id, "keys", "sign", func() { must(kpS.Sign(in.header)) })
	sp.do(op, id, "keys", "wrap", func() { must(kpR.Public().WrapKey(cek)) })
	var nonce, ct []byte
	sp.do(op, id, "keys", "aead_seal", func() { nonce, ct, _ = keys.AEADSeal(cek, body) })

	var frame []byte
	sp.do(op, 0, "endpoint", "marshal", func() {
		frame = unicastFrame(in.sender.id(), in.rcpt.id(), sealed.Bytes()).Marshal()
	})
	sp.do(op, 0, "simnet", "send", func() { wire.deliver(frame) })
	var msg *endpoint.Message
	sp.do(op, 0, "endpoint", "parse", func() { msg = must(endpoint.ParseMessage(frame)) })

	var opened *core.Opened
	env, _ := msg.Get(proto.ElemEnvelope)
	id = sp.do(op, 0, "core", "open", func() { opened = must(core.Open(kpR, env)) })
	wrapped := must(kpR.Public().WrapKey(cek))
	sp.do(op, id, "keys", "unwrap", func() { must(kpR.UnwrapKey(wrapped)) })
	sp.do(op, id, "keys", "aead_open", func() { must(keys.AEADOpen(cek, nonce, ct)) })

	sp.do(op, 0, "core", "replay_check", func() { check(guard.Check(env, opened.SentAt)) })
	id = sp.do(op, 0, "client", "resolve_sender", func() {
		_, doc, _ := in.rcpt.sc.LookupPipe(ctx, in.sender.id(), benchGroup)
		must(in.rcpt.sc.VerifyCache().VerifyTrusted(doc, now))
	})
	sp.do(op, id, "discovery", "find_pipe", func() { in.rcpt.sc.LookupPipe(ctx, in.sender.id(), benchGroup) })
	id = sp.do(op, 0, "core", "verify", func() { check(opened.VerifySignature(kpS.Public())) })
	sig := must(kpS.Sign(in.header))
	sp.do(op, id, "keys", "verify", func() { check(kpS.Public().Verify(in.header, sig)) })
}

// The relay chain is SecureMsgPeerGroupRelay and its 16 deliveries: roster,
// 16 recipient keys, one sealed round, one upload; admission, slicing
// and 16 submissions at the broker; 16 opens at the recipients.
type relayChain struct {
	l      *layerRun
	rig    *built
	in     *inputs
	wire   *wirePair
	cek    []byte
	ids    []string
	guards []*core.ReplayGuard
}

func (l *layerRun) newRelayChain(rig *built, in *inputs) *relayChain {
	c := &relayChain{l: l, rig: rig, in: in, wire: newWirePair(), cek: must(keys.NewContentKey())}
	for _, p := range in.group[1:] {
		g := core.NewReplayGuard(0, 0)
		fillReplayGuard(g, "step-"+p.alias)
		c.ids, c.guards = append(c.ids, string(p.id())), append(c.guards, g)
	}
	return c
}

func (c *relayChain) close() { c.wire.net.Close() }

func (c *relayChain) step(op int) {
	l, rig, in, wire, cek, ids, guards := c.l, c.rig, c.in, c.wire, c.cek, c.ids, c.guards
	ctx, now := l.ctx, time.Now()
	body := []byte(l.round)
	kpS := in.sender.kp
	who := string(in.sender.id())
	sp := l.spans
	sp.do(op, 0, "broker", "list_peers_rtt", func() { must(in.sender.sc.GetGroupMembers(ctx, benchGroup)) })
	id := sp.do(op, 0, "client", "resolve_recipients", func() {
		for _, p := range in.group[1:] {
			_, doc, _ := in.sender.sc.LookupPipe(ctx, p.id(), benchGroup)
			must(in.sender.sc.VerifyCache().VerifyTrusted(doc, now))
		}
	})
	sp.do(op, id, "discovery", "find_pipe", func() {
		for _, p := range in.group[1:] {
			in.sender.sc.LookupPipe(ctx, p.id(), benchGroup)
		}
	})
	var d *core.DetachedRound
	id = sp.do(op, 0, "core", "seal_group", func() {
		d = must(core.SealGroupDetached(kpS, in.sender.id(), benchGroup, body, in.rcptKeys))
	})
	sp.do(op, id, "keys", "sign", func() { must(kpS.Sign(in.header)) })
	sp.do(op, id, "keys", "wrap", func() {
		for _, k := range in.rcptKeys {
			must(k.WrapKey(cek))
		}
	})
	var nonce, ct []byte
	sp.do(op, id, "keys", "aead_seal", func() { nonce, ct, _ = keys.AEADSeal(cek, body) })

	var frame []byte
	sp.do(op, 0, "endpoint", "marshal", func() {
		frame = endpoint.NewMessage().
			AddString(proto.ElemOp, proto.OpRelayRound).
			AddString(proto.ElemGroup, benchGroup).
			AddString(proto.ElemRecipients, strings.Join(ids, ",")).
			Add(proto.ElemEnvelope, d.Wire()).Marshal()
	})
	sp.do(op, 0, "simnet", "send", func() { wire.deliver(frame) })
	var msg *endpoint.Message
	sp.do(op, 0, "endpoint", "parse", func() { msg = must(endpoint.ParseMessage(frame)) })
	sp.do(op, 0, "admission", "allow", func() { rig.env.adm.Allow(who) })
	roundWire, _ := msg.Get(proto.ElemEnvelope)
	var cut *core.DetachedRound
	sp.do(op, 0, "core", "slice_round", func() { cut = must(core.SliceRound(roundWire)) })
	slices := make([][]byte, len(ids))
	frames := make([][]byte, len(ids))
	sp.do(op, 0, "relay", "route_direct", func() {
		for i := range ids {
			slices[i] = cut.Slice(i)
			frames[i] = sliceFrame(in.sender.id(), in.group[i+1].id(), slices[i]).Marshal()
			wire.deliver(frames[i])
		}
	})
	for i, p := range in.group[1:] {
		var opened *core.Opened
		id = sp.do(op, 0, "recipient", "open_slice", func() {
			m := must(endpoint.ParseMessage(frames[i]))
			env, _ := m.Get(proto.ElemEnvelope)
			opened = must(core.OpenSlice(p.kp, env, nil))
			check(guards[i].Check(env, opened.SentAt))
			check(guards[i].CheckRound(opened.Sender, opened.Nonce, opened.SentAt))
			_, doc, _ := p.sc.LookupPipe(ctx, in.sender.id(), benchGroup)
			must(p.sc.VerifyCache().VerifyTrusted(doc, now))
			check(opened.VerifySignature(kpS.Public()))
		})
		wrapped := must(p.kp.Public().WrapKey(cek))
		sp.do(op, id, "keys", "unwrap", func() { must(p.kp.UnwrapKey(wrapped)) })
		sp.do(op, id, "keys", "aead_open", func() { must(keys.AEADOpen(cek, nonce, ct)) })
		sig := must(kpS.Sign(in.header))
		sp.do(op, id, "keys", "verify", func() { check(kpS.Public().Verify(in.header, sig)) })
		sp.do(op, id, "core", "replay_check", func() {
			check(guards[i].Check([]byte(fmt.Sprintf("step-probe/%d/%d", op, i)), now))
		})
	}
}

// The join chain is one client lifetime on the rig: boot, secureConnection,
// secureLogin, logout, close. The calls are live — the rig's broker
// answers them and its 17 members receive the presence — and the
// primitives each is known to run are replayed under it.
type joinChain struct {
	l         *layerRun
	e         *env
	alias     string
	kp        *keys.KeyPair
	chall     []byte
	brCredRaw []byte
}

func (l *layerRun) newJoinChain(rig *built) *joinChain {
	c := &joinChain{l: l, e: rig.env, alias: peerAlias(fixturePeers - 2)} // an identity the rig does not use
	c.kp = must(loadKey(c.alias))
	check(c.e.db.Register(c.alias, peerPassword(c.alias), benchGroup))
	c.chall = must(keys.RandomBytes(32))
	c.brCredRaw = must(c.e.brCred.Document()).Canonical()
	return c
}

func (c *joinChain) close() {}

func (c *joinChain) step(op int) {
	l, e, alias, kp, chall, brCredRaw := c.l, c.e, c.alias, c.kp, c.chall, c.brCredRaw
	ctx, now := l.ctx, time.Now()
	sp := l.spans
	var p *peer
	sp.do(op, 0, "client", "new", func() { p = must(e.newPeer(alias, kp)) })

	id := sp.do(op, 0, "brokersec", "connect", func() { check(p.sc.SecureConnection(ctx, e.br.PeerID())) })
	sig := must(e.brKP.Sign(chall))
	sp.do(op, id, "keys", "sign", func() { must(e.brKP.Sign(chall)) })
	sp.do(op, id, "xmldoc", "parse_canonical", func() { must(xmldoc.ParseCanonical(brCredRaw)) })
	sp.do(op, id, "cred", "verify", func() {
		ts := must(e.dep.TrustStore())
		check(ts.Verify(e.brCred, now))
	})
	sp.do(op, id, "keys", "verify", func() { check(e.brKP.Public().Verify(chall, sig)) })

	id = sp.do(op, 0, "brokersec", "login", func() { check(p.sc.SecureLogin(ctx, peerPassword(alias))) })
	req := []byte(strings.Repeat("x", 600)) // a login request is about this long
	var envl *keys.Envelope
	sp.do(op, id, "keys", "sign", func() { must(kp.Sign(req)) })
	sp.do(op, id, "keys", "wrap", func() { envl = must(e.brKP.Public().Encrypt(req)) })
	sp.do(op, id, "keys", "unwrap", func() { must(e.brKP.Decrypt(envl)) })
	reqSig := must(kp.Sign(req))
	sp.do(op, id, "keys", "verify", func() { check(kp.Public().Verify(req, reqSig)) })
	sp.do(op, id, "userdb", "authenticate", func() { must(e.db.Authenticate(alias, peerPassword(alias))) })
	var issued *cred.Credential
	sp.do(op, id, "cred", "issue", func() {
		issued = must(cred.Issue(e.brKP, e.brCred.Subject, p.id(), alias, cred.RoleClient, kp.Public(), time.Hour))
	})
	sp.do(op, id, "keys", "verify", func() { check(issued.Verify(e.brKP.Public(), now)) })
	sp.do(op, id, "audit", "record", func() {
		e.aud.Record(audit.Event{Kind: audit.KindLogin, Peer: string(p.id()), Op: proto.OpSecureLogin, Reason: "ok"})
	})
	adv := &advert.Pipe{PipeID: fmt.Sprintf("urn:jxta:pipe-step%08d", op), PipeType: advert.PipeUnicast,
		Name: "msg/" + benchGroup, PeerID: p.id(), Group: benchGroup}
	doc := must(adv.Document())
	sp.do(op, id, "xdsig", "sign", func() { check(xdsig.Sign(doc, kp, issued, e.brCred)) })
	sp.do(op, id, "xdsig", "verify_cold", func() {
		parsed := must(xmldoc.ParseCanonical(doc.Canonical()))
		must(xdsig.VerifyTrusted(parsed, e.bs.Trust(), now))
	})

	sp.do(op, 0, "brokersec", "logout", func() { check(p.sc.Logout(ctx)) })
	sp.do(op, 0, "client", "close", func() { p.sc.Close() })
}
