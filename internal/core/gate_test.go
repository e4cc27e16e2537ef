package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/parallel"
	"jxtaoverlay/internal/perfgate"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/xdsig"
	"jxtaoverlay/internal/xmldoc"
)

// The regression gates of this package's hot paths. Each Benchmark is
// the one loop its gate test runs under the ceilings beside it.

// BenchmarkOpenSlice is one recipient's whole receive path for a slice
// of a 100-member relayed round, in the steady state: unwrap the content
// key (an HKDF, the X25519 with the sender's round key memoized by the
// first open: no X25519, which the loop asserts by count), open the AEAD
// in place, parse the signed header,
// check body digest and Merkle slice binding, verify the header
// signature.
func BenchmarkOpenSlice(b *testing.B) {
	recipients := make([]*keys.PublicKey, 100)
	for i := range recipients {
		recipients[i] = recvKP.Public()
	}
	d, err := SealGroupDetached(senderKP, "urn:jxta:cbid-sender", "bench", make([]byte, 1024), recipients)
	if err != nil {
		b.Fatal(err)
	}
	wire := d.Slice(0)
	if _, err := OpenSlice(recvKP, wire, nil); err != nil {
		b.Fatal(err)
	}
	agreed := recvKP.AgreeCalls()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := OpenSlice(recvKP, wire, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := o.VerifySignature(senderKP.Public()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if a := recvKP.AgreeCalls() - agreed; a != 0 {
		b.Fatalf("%d X25519 opening %d slices, want none", a, b.N)
	}
}

func TestGateOpenSlice(t *testing.T) { perfgate.Run(t, BenchmarkOpenSlice, 14, perfgate.NoLimit) }

// BenchmarkFanOutRound is a sender's work for one 100-recipient round in
// the steady state: verify every recipient's signed pipe advertisement
// (cached after the first encounter) and seal the 1 KiB body for the
// whole set with one header signature and one key wrap per recipient,
// under the round key a client holds — an HKDF, the X25519 with the
// agreement key the recipient's credential certifies memoized by the
// first round, which the loop asserts by count.
func BenchmarkFanOutRound(b *testing.B) {
	const n = 100
	dep, err := NewDeploymentFromKey(mustKey(410), "admin")
	if err != nil {
		b.Fatal(err)
	}
	brokerKP := mustKey(411)
	brokerCred, err := dep.IssueBrokerCredential(brokerKP.Public(), "broker", time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	recvID, _ := keys.CBID(recvKP.Public())
	recvCred, err := cred.Issue(brokerKP, brokerCred.Subject, recvID, "recv", cred.RoleClient, recvKP.Public(), time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	trust, err := dep.TrustStore()
	if err != nil {
		b.Fatal(err)
	}
	docs := make([]*xmldoc.Element, n)
	for i := range docs {
		doc, err := (&advert.Pipe{
			PipeID:   fmt.Sprintf("urn:jxta:pipe-fan-%d", i),
			PipeType: advert.PipeUnicast,
			PeerID:   recvID,
			Group:    "bench",
		}).Document()
		if err != nil {
			b.Fatal(err)
		}
		if err := xdsig.Sign(doc, recvKP, recvCred, brokerCred); err != nil {
			b.Fatal(err)
		}
		docs[i] = doc
	}
	body := make([]byte, 1024)
	now := time.Now()
	vc := xdsig.NewVerifyCache(trust, 256)
	eph, err := senderKP.NewRoundKey()
	if err != nil {
		b.Fatal(err)
	}
	round := func() {
		recipients := make([]*keys.PublicKey, n)
		parallel.ForEach(runtime.GOMAXPROCS(0), n, func(j int) {
			res, err := vc.VerifyTrusted(docs[j], now)
			if err != nil {
				b.Error(err)
				return
			}
			recipients[j] = res.Signer.Key
		})
		if b.Failed() {
			return
		}
		if _, err := sealRound(senderKP, "urn:jxta:cbid-sender", "bench", body, recipients, eph, now); err != nil {
			b.Fatal(err)
		}
	}
	// The first round meets every advertisement cold (three RSA
	// verifications each) and agrees with every recipient's key; the
	// steady state is what is measured.
	round()
	agreed := senderKP.AgreeCalls()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N && !b.Failed(); i++ {
		round()
	}
	b.StopTimer()
	if a := senderKP.AgreeCalls() - agreed; a != 0 {
		b.Fatalf("%d X25519 sealing %d rounds under one round key, want none", a, b.N)
	}
}

// It reads 227, and 227–229 under the race detector, whose sync.Pool
// drops some of what is put back.
func TestGateFanOutRound(t *testing.T) { perfgate.Run(t, BenchmarkFanOutRound, 232, perfgate.NoLimit) }

// BenchmarkLeaseRenew is the bookkeeping every heartbeat pays once its
// signature is verified: one locked table lookup, the lease and
// sequence checks, the expiry bump. A fleet heartbeating at TTL/3 must
// cost the broker table work, not garbage.
func BenchmarkLeaseRenew(b *testing.B) {
	bs := &BrokerSecurity{
		cfg:    BrokerConfig{LeaseTTL: time.Minute},
		leases: make(map[keys.PeerID]*lease),
	}
	peer := keys.PeerID("urn:jxta:bench-peer")
	bs.leases[peer] = &lease{id: "ls-bench", expiry: time.Now().Add(time.Hour)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tok := bs.renewLease(peer, "ls-bench", uint64(i)+1, time.Now()); tok != "" {
			b.Fatalf("heartbeat refused: %s", tok)
		}
	}
}

func TestGateLeaseRenew(t *testing.T) { perfgate.Run(t, BenchmarkLeaseRenew, 0, 1000) }

// BenchmarkReplayAdmitFull is one Check on a full guard — the state a
// recipient is in under sustained load: 4096 live entries, every admit
// evicting the one closest to expiry. A unicast open pays it once and a
// round open twice, beside an RSA unwrap it must stay invisible next to.
func BenchmarkReplayAdmitFull(b *testing.B) {
	g := NewReplayGuard(0, 0)
	now := time.Now()
	next := distinctWires()
	fillGuard(g, now, next)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Check(next(), now); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGateReplayAdmitFull(t *testing.T) { perfgate.Run(t, BenchmarkReplayAdmitFull, 0, 5000) }

// BenchmarkChannelMessage is one 64 B message on an established session
// channel, end to end without the fabric: build the endpoint frame as a
// pipe send does, the channel frame sealed into it, parse that as its
// recipient does, and open the channel frame where it lies, freshness
// check and sequence window included. No signature and no key agreement
// at either end, which the gate asserts by count.
func BenchmarkChannelMessage(b *testing.B) { benchChannelMessage(b, 64) }

func TestGateChannelMessage(t *testing.T) { perfgate.Run(t, BenchmarkChannelMessage, 5, 40000) }

// BenchmarkChannelBulk is the same loop with one 256 KiB frame. The one
// buffer is the endpoint frame the channel frame is sealed into, which
// the fabric delivers as it is; the open is in place. Per byte a frame
// costs one AES-GCM pass at each end, the body's one copy into the frame
// at the sender, and no SHA-256 pass at either: the loop asserts that a
// frame is its body and 49 bytes — no digest travels, so there is none to
// compute at one end and compare at the other — and that the guard, the
// one consumer of a digest of the wire, holds nothing afterwards.
func BenchmarkChannelBulk(b *testing.B) { benchChannelMessage(b, 256<<10) }

func TestGateChannelBulk(t *testing.T) {
	r := perfgate.Run(t, BenchmarkChannelBulk, 5, perfgate.NoLimit)
	// One buffer of 256 KiB and a little, rounded up to whole 8 KiB pages,
	// and the 1 KiB the small objects of a 64 B message fit in.
	if got, limit := r.AllocedBytesPerOp(), int64(264<<10+1<<10); got > limit {
		t.Fatalf("%d bytes allocated per 256 KiB message, ceiling %d: more than the endpoint frame the channel frame is sealed into", got, limit)
	}
}

func benchChannelMessage(b *testing.B, size int) {
	pair := pairKey{"urn:jxta:cbid-recipient", "bench"}
	var out, in channelTable
	out.ready()
	now := time.Now()
	out.out.Put(pair, &outChannel{id: tableChannelID, aead: tableAEAD()}, now.Add(time.Hour), now)
	in.install(&inChannel{id: tableChannelID, pair: pairKey{"urn:jxta:cbid-sender", "bench"}, aead: tableAEAD()}, now.Add(time.Hour), now)
	guard := NewReplayGuard(0, 0)
	text := string(make([]byte, size))
	signed, agreed := senderKP.SignCalls()+recvKP.SignCalls(), senderKP.AgreeCalls()+recvKP.AgreeCalls()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := time.Now()
		ref, aead, _, ok := out.claimFrame(pair, text, at)
		if !ok {
			b.Fatal("no channel")
		}
		room := endpoint.Room{Size: frameSize(len(text)), Fill: func(dst []byte) ([]byte, error) {
			return sealFrame(dst, aead, ref, readOnlyBytes(text), at), nil
		}}
		frame, err := endpoint.BuildFrame(endpoint.Route{Src: "urn:jxta:cbid-sender", Service: "jxta:pipe:", Param: "bench"}, &room,
			endpoint.Element{Name: proto.ElemEnvelope}, endpoint.Element{Name: proto.ElemGroup, Data: readOnlyBytes("bench")})
		if err != nil {
			b.Fatal(err)
		}
		f, err := endpoint.ParseFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		env, _ := f.Msg.Get(proto.ElemEnvelope)
		if len(env) != framePrefix+frameTimeSize+size+keys.AEADOverhead {
			b.Fatalf("a frame of %d bytes for a body of %d: want the body, the prefix, the sent-at and the tag", len(env), size)
		}
		o, err := openWire(recvKP, env, formEnvelope|formSlice|formChannel, nil, guard, &in, time.Now())
		if err != nil || len(o.Body) != len(text) || o.via == nil {
			b.Fatalf("open: (%+v, %v)", o, err)
		}
	}
	b.StopTimer()
	if s, a := senderKP.SignCalls()+recvKP.SignCalls()-signed, senderKP.AgreeCalls()+recvKP.AgreeCalls()-agreed; s != 0 || a != 0 {
		b.Fatalf("%d signatures and %d X25519 on an established channel, want none", s, a)
	}
	if guard.Len() != 0 {
		b.Fatalf("%d guard entries after %d frames, want none: the window refuses a replay, and nothing digests the wire", guard.Len(), b.N)
	}
}

// BenchmarkDeliverFrame is one 64 B channel message delivered as a group
// pipe delivers it: the sender builds the endpoint frame with the channel
// frame sealed into it, and the recipient parses it and hands it to
// handleEnvelope, which opens it where it lies and emits the
// SecureMessage to a subscriber. Beyond BenchmarkChannelMessage's frame,
// nonce, parse and open, a delivery allocates nothing: the event's
// attributes are typed fields and the bus dispatches without a copy.
func BenchmarkDeliverFrame(b *testing.B) {
	r := benchRecipient(b)
	r.s.chans.install(&inChannel{id: tableChannelID, pair: pairKey{"urn:jxta:cbid-sender", "bench"}, user: "sender", aead: tableAEAD()}, time.Now().Add(time.Hour), time.Now())
	pair := pairKey{r.s.PeerID(), "bench"}
	var out channelTable
	out.ready()
	now := time.Now()
	out.out.Put(pair, &outChannel{id: tableChannelID, aead: tableAEAD()}, now.Add(time.Hour), now)
	text := string(make([]byte, 64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := time.Now()
		ref, aead, _, ok := out.claimFrame(pair, text, at)
		if !ok {
			b.Fatal("no channel")
		}
		room := endpoint.Room{Size: frameSize(len(text)), Fill: func(dst []byte) ([]byte, error) {
			return sealFrame(dst, aead, ref, readOnlyBytes(text), at), nil
		}}
		frame, err := endpoint.BuildFrame(endpoint.Route{Src: "urn:jxta:cbid-sender", Service: "jxta:pipe:", Param: "bench"}, &room,
			endpoint.Element{Name: proto.ElemEnvelope}, endpoint.Element{Name: proto.ElemGroup, Data: readOnlyBytes("bench")})
		if err != nil {
			b.Fatal(err)
		}
		f, err := endpoint.ParseFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		r.s.handleEnvelope("bench", "urn:jxta:cbid-sender", f.Msg, pipeForms)
	}
	b.StopTimer()
	if r.delivered != b.N {
		b.Fatalf("%d messages delivered of %d frames", r.delivered, b.N)
	}
}

func TestGateDeliverFrame(t *testing.T) { perfgate.Run(t, BenchmarkDeliverFrame, 5, 50000) }

// BenchmarkDeliverSlice is one relay-pushed slice of a round delivered to
// a recipient that holds its sender's signed pipe advertisement and
// verdict (the steady state of a relayed group): the endpoint parses the
// push, the client reads its routing, and handleEnvelope opens the slice,
// resolves the sender from the cache, verifies the header signature under
// the sender's certified key and emits the SecureMessage. The sender's
// advertisement is verified on every delivery — from the verdict cache —
// and the signature by RSA, which is most of what the path allocates. A
// context.WithTimeout costs four allocations (the context, its timer and
// their bookkeeping): the ceiling leaves room for none, so a delivery
// that builds a context or arms a timer for a sender it holds fails the
// gate. The recipient runs without a replay guard, so that one slice is
// delivered again and again; a guard's admit allocates nothing
// (BenchmarkReplayAdmitFull).
func BenchmarkDeliverSlice(b *testing.B) {
	r := benchRecipient(b)
	senderID, err := keys.CBID(senderKP.Public())
	if err != nil {
		b.Fatal(err)
	}
	senderCred, err := cred.Issue(r.brokerKP, r.brokerCred.Subject, senderID, "sender", cred.RoleClient, senderKP.Public(), time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	doc, err := (&advert.Pipe{PipeID: advert.GroupPipeID(senderID, "bench"), PipeType: advert.PipeUnicast, PeerID: senderID, Group: "bench"}).Document()
	if err != nil {
		b.Fatal(err)
	}
	if err := xdsig.Sign(doc, senderKP, senderCred, r.brokerCred); err != nil {
		b.Fatal(err)
	}
	if _, err := r.s.Cache().Put(doc); err != nil {
		b.Fatal(err)
	}
	d, err := SealGroupDetached(senderKP, senderID, "bench", make([]byte, 64), []*keys.PublicKey{recvKP.Public()})
	if err != nil {
		b.Fatal(err)
	}
	push, err := endpoint.BuildFrame(endpoint.Route{Src: "urn:jxta:cbid-broker", Service: proto.ClientService}, nil,
		endpoint.Element{Name: proto.ElemOp, Data: []byte(proto.OpSliceDeliver)},
		endpoint.Element{Name: proto.ElemGroup, Data: []byte("bench")},
		endpoint.Element{Name: proto.ElemPeer, Data: []byte(senderID)},
		endpoint.Element{Name: proto.ElemEnvelope, Data: d.Slice(0)})
	if err != nil {
		b.Fatal(err)
	}
	// The open consumes its packet: each delivery gets the push afresh.
	packet := make([]byte, len(push))
	deliver := func() {
		copy(packet, push)
		r.hop.deliver(simnet.Packet{Payload: packet})
	}
	// The first delivery verifies the advertisement and agrees on the
	// round key; what is measured is every delivery after it.
	deliver()
	if r.delivered != 1 {
		b.Fatal("the first slice was not delivered")
	}
	agreed := recvKP.AgreeCalls()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deliver()
	}
	b.StopTimer()
	if r.delivered != b.N+1 {
		b.Fatalf("%d messages delivered of %d slices", r.delivered-1, b.N)
	}
	if a := recvKP.AgreeCalls() - agreed; a != 0 {
		b.Fatalf("%d X25519 delivering %d slices of one round, want none", a, b.N)
	}
}

func TestGateDeliverSlice(t *testing.T) { perfgate.Run(t, BenchmarkDeliverSlice, 16, perfgate.NoLimit) }

// benchRecipientEnd is the receiving end of the delivery benchmarks: a
// secure client of key pair recvKP on a transport of its own, trusting a
// deployment whose administrator is mustKey(410) and whose broker is
// mustKey(411), counting the SecureMessages it emits.
type benchRecipientEnd struct {
	s          *SecureClient
	hop        *oneHop
	brokerKP   *keys.KeyPair
	brokerCred *cred.Credential
	delivered  int
}

// benchRecipient builds a benchRecipientEnd, closed when b ends.
func benchRecipient(b *testing.B) *benchRecipientEnd {
	dep, err := NewDeploymentFromKey(mustKey(410), "admin")
	if err != nil {
		b.Fatal(err)
	}
	r := &benchRecipientEnd{hop: new(oneHop), brokerKP: mustKey(411)}
	if r.brokerCred, err = dep.IssueBrokerCredential(r.brokerKP.Public(), "broker", time.Hour); err != nil {
		b.Fatal(err)
	}
	trust, err := dep.TrustStore()
	if err != nil {
		b.Fatal(err)
	}
	cl, err := client.New(r.hop, membership.NewNone(), "recv")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Close)
	r.s = &SecureClient{Client: cl, kp: recvKP, trust: trust, vcache: xdsig.NewVerifyCache(trust, 0)}
	cl.SetEnvelopeHandlers(r.s.receiver(pipeForms), r.s.receiver(formSlice))
	cl.Bus().Subscribe(events.SecureMessage, func(events.Event) { r.delivered++ })
	return r
}

// oneHop is the transport of a recipient benchmarked alone: it keeps the
// receiver the endpoint attaches, which the benchmark calls as the
// fabric's delivery goroutine would, and sends nowhere.
type oneHop struct{ deliver simnet.Handler }

func (t *oneHop) Attach(_ simnet.NodeID, h simnet.Handler) error { t.deliver = h; return nil }
func (t *oneHop) Detach(simnet.NodeID)                           {}
func (t *oneHop) Attached(simnet.NodeID) bool                    { return true }
func (t *oneHop) Send(_, _ simnet.NodeID, _ []byte) error        { return nil }
