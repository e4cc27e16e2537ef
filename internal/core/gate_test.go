package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/perfgate"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/relay"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
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

func TestGateOpenSlice(t *testing.T) { perfgate.Run(t, BenchmarkOpenSlice, 13, perfgate.NoLimit) }

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
	vc := xdsig.NewVerifyCache(trust)
	eph, err := senderKP.NewRoundKey()
	if err != nil {
		b.Fatal(err)
	}
	round := func() {
		recipients := make([]*keys.PublicKey, n)
		forEach(runtime.GOMAXPROCS(0), n, func(j int) {
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

// It reads 17 at every GOMAXPROCS above one (15 at one, where the
// verifications run on the caller alone), under the race detector too,
// whose sync.Pool drops some of what is put back: the margin is kept
// for that. The verifications start no goroutine per recipient, and the
// round's Merkle tree is one array of hashes.
func TestGateFanOutRound(t *testing.T) { perfgate.Run(t, BenchmarkFanOutRound, 22, perfgate.NoLimit) }

// BenchmarkLeaseRenew is the bookkeeping every heartbeat pays once its
// signature is verified: one locked lookup of the session record, the
// lease and sequence checks, the deadline bump. A fleet heartbeating at
// TTL/3 must cost the broker table work, not garbage.
func BenchmarkLeaseRenew(b *testing.B) {
	br, err := broker.New(broker.Config{Name: "bench-broker", PeerID: "urn:jxta:cbid-broker",
		Net: &pushCapture{frames: make(map[simnet.NodeID][]byte)}, DB: broker.LocalDB(userdb.NewStoreIter(4))})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(br.Close)
	peer := keys.PeerID("urn:jxta:bench-peer")
	leaseID := []byte("ls-bench")
	br.RegisterLeasedPeer(peer, "bench", nil, broker.Lease{ID: string(leaseID), TTL: time.Minute})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tok := br.RenewLease(peer, leaseID, uint64(i)+1, time.Now()); tok != "" {
			b.Fatalf("heartbeat refused: %s", tok)
		}
	}
}

func TestGateLeaseRenew(t *testing.T) { perfgate.Run(t, BenchmarkLeaseRenew, 0, 1000) }

// TestGateRandomID: a session identifier (no prefix) and a lease
// identifier ("ls-") are the prefix and 32 lowercase hex digits, and each
// costs one allocation, its string (two under the race detector, whose
// crypto/rand.Read moves the random bytes to the heap).
func TestGateRandomID(t *testing.T) {
	allocs := 1.0
	if perfgate.Race {
		allocs++
	}
	for _, prefix := range []string{"", "ls-"} {
		id, err := randomID(prefix)
		if err != nil {
			t.Fatal(err)
		}
		digits, ok := strings.CutPrefix(id, prefix)
		if raw, err := hex.DecodeString(digits); !ok || err != nil || len(raw) != 16 || hex.EncodeToString(raw) != digits {
			t.Fatalf("randomID(%q) = %q", prefix, id)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = randomID(prefix) }); n != allocs {
			t.Fatalf("randomID(%q) allocates %v times, want %v", prefix, n, allocs)
		}
	}
}

// BenchmarkReplayAdmitFull is one Check on a full guard — the state a
// recipient is in under sustained load: 4096 live entries, every admit
// evicting the one closest to expiry. A unicast open pays it once and a
// round open twice, beside an RSA unwrap it must stay invisible next to.
// Each wire is signed a nanosecond after the one before, as traffic's
// signed times advance: the entry that fills the evicted root's place is
// one of the latest to expire, and sifts down the heap's full height.
func BenchmarkReplayAdmitFull(b *testing.B) {
	g := NewReplayGuard(0, 0)
	sentAt := time.Now()
	next := distinctWires()
	admit := func() error {
		sentAt = sentAt.Add(time.Nanosecond)
		return g.Check(next(), sentAt)
	}
	for g.Len() < 4096 {
		admit()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := admit(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGateReplayAdmitFull(t *testing.T) { perfgate.Run(t, BenchmarkReplayAdmitFull, 0, 5000) }

// BenchmarkChannelMessage is one 64 B message on an established session
// channel, end to end without the fabric: build the endpoint frame as a
// pipe send does, the channel frame sealed into it, deliver it to the
// recipient's endpoint, which parses it into a table lent for its
// handler's call as every delivery does, and open the channel frame in
// that handler where it lies, freshness check and sequence window
// included. No signature and no key agreement at either end, which the
// gate asserts by count. What it allocates is the endpoint frame: the
// element table and each end's AEAD nonce are lent by pools, and the
// open's result is the caller's.
func BenchmarkChannelMessage(b *testing.B) { benchChannelMessage(b, 64) }

func TestGateChannelMessage(t *testing.T) {
	perfgate.Run(t, BenchmarkChannelMessage, channelMessageAllocs(), 40000)
}

// channelMessageAllocs is the ceiling of a channel message: its frame,
// and under the race detector, whose sync.Pool drops one Put in four, one
// more for the table and the two nonces lent each message.
func channelMessageAllocs() int64 {
	if perfgate.Race {
		return 2
	}
	return 1
}

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
	r := perfgate.Run(t, BenchmarkChannelBulk, channelMessageAllocs(), perfgate.NoLimit)
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
	hop := new(oneHop)
	ep, err := endpoint.NewService(hop, "urn:jxta:cbid-recipient")
	if err != nil {
		b.Fatal(err)
	}
	defer ep.Close()
	var opened Opened
	received := 0
	ep.RegisterHandler("jxta:pipe:bench", func(_ keys.PeerID, msg *endpoint.Message) *endpoint.Message {
		env, _ := msg.Get(proto.ElemEnvelope)
		if len(env) != framePrefix+frameTimeSize+size+keys.AEADOverhead {
			b.Fatalf("a frame of %d bytes for a body of %d: want the body, the prefix, the sent-at and the tag", len(env), size)
		}
		o, err := openWire(&opened, recvKP, env, formEnvelope|formSlice|formChannel, nil, guard, &in, time.Now())
		if err != nil || len(o.Body) != len(text) || o.via == nil {
			b.Fatalf("open: (%+v, %v)", o, err)
		}
		received++
		return nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := time.Now()
		ref, aead, _, ok := out.claimFrame(pair, text, at)
		if !ok {
			b.Fatal("no channel")
		}
		room := endpoint.Room{Size: frameSize(len(text)), Fill: func(dst []byte) ([]byte, error) {
			return sealFrame(dst, aead, ref, endpoint.ReadOnlyBytes(text), at), nil
		}}
		frame, err := endpoint.BuildFrame(endpoint.Route{Src: "urn:jxta:cbid-sender", Service: "jxta:pipe:", Param: "bench"}, &room,
			endpoint.Element{Name: proto.ElemEnvelope}, endpoint.Element{Name: proto.ElemGroup, Data: endpoint.ReadOnlyBytes("bench")})
		if err != nil {
			b.Fatal(err)
		}
		hop.deliver(simnet.Packet{Payload: frame})
	}
	b.StopTimer()
	if received != b.N {
		b.Fatalf("%d frames opened of %d delivered", received, b.N)
	}
	if s, a := senderKP.SignCalls()+recvKP.SignCalls()-signed, senderKP.AgreeCalls()+recvKP.AgreeCalls()-agreed; s != 0 || a != 0 {
		b.Fatalf("%d signatures and %d X25519 on an established channel, want none", s, a)
	}
	if guard.Len() != 0 {
		b.Fatalf("%d guard entries after %d frames, want none: the window refuses a replay, and nothing digests the wire", guard.Len(), b.N)
	}
}

// BenchmarkDeliverFrame is one 64 B channel message delivered down a
// group pipe: the sender builds the endpoint frame with the channel frame
// sealed into it, the endpoint parses it into a table lent for the pipe
// handler's call, the pipe queues a pooled copy of that table, and the
// group's pump hands it to handleEnvelope, which opens the frame where it
// lies and emits the SecureMessage to a subscriber. Beyond the frame, a
// delivery allocates nothing: neither table is the delivery's own,
// handleEnvelope opens into an Opened of its own stack, the event's
// attributes are typed fields and the bus dispatches without a copy.
func BenchmarkDeliverFrame(b *testing.B) {
	r := benchRecipient(b)
	r.login(b, "bench")
	r.s.chans.install(&inChannel{id: tableChannelID, pair: pairKey{"urn:jxta:cbid-sender", "bench"}, user: "sender", aead: tableAEAD()}, time.Now().Add(time.Hour), time.Now())
	pair := pairKey{r.s.PeerID(), "bench"}
	var out channelTable
	out.ready()
	now := time.Now()
	out.out.Put(pair, &outChannel{id: tableChannelID, aead: tableAEAD()}, now.Add(time.Hour), now)
	opened := make(chan struct{}, 1)
	r.s.Bus().Subscribe(events.SecureMessage, func(events.Event) { opened <- struct{}{} })
	route := endpoint.Route{Src: "urn:jxta:cbid-sender", Service: "jxta:pipe:", Param: advert.GroupPipeID(r.s.PeerID(), "bench")}
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
			return sealFrame(dst, aead, ref, endpoint.ReadOnlyBytes(text), at), nil
		}}
		frame, err := endpoint.BuildFrame(route, &room,
			endpoint.Element{Name: proto.ElemEnvelope}, endpoint.Element{Name: proto.ElemGroup, Data: endpoint.ReadOnlyBytes("bench")})
		if err != nil {
			b.Fatal(err)
		}
		r.hop.deliver(simnet.Packet{Payload: frame})
		<-opened
	}
	b.StopTimer()
	if r.delivered != b.N {
		b.Fatalf("%d messages delivered of %d frames", r.delivered, b.N)
	}
}

// TestGateDeliverFrame holds a delivered channel message to its frame.
// Under the race detector, whose sync.Pool drops one Put in four, it
// allows one more for the tables and the nonce lent each message.
func TestGateDeliverFrame(t *testing.T) {
	allocs := int64(1)
	if perfgate.Race {
		allocs++
	}
	perfgate.Run(t, BenchmarkDeliverFrame, allocs, 50000)
}

// BenchmarkDeliverSlice is one relay-pushed slice of a round delivered to
// a recipient that holds its sender's signed pipe advertisement and
// verdict (the steady state of a relayed group): the endpoint parses the
// push, the client finds the push's group among its own, and
// handleEnvelope opens the slice, resolves the sender from the cache,
// verifies the header signature under the sender's certified key and
// emits the SecureMessage. The sender's
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
	r.login(b, "bench")
	senderID, doc := r.senderPipe(b)
	if _, err := r.s.Cache().Put(doc); err != nil {
		b.Fatal(err)
	}
	d, err := SealGroupDetached(senderKP, senderID, "bench", make([]byte, 64), []*keys.PublicKey{recvKP.Public()})
	if err != nil {
		b.Fatal(err)
	}
	slice := d.Slice(0)
	push, err := endpoint.BuildFrame(endpoint.Route{Src: "urn:jxta:cbid-broker", Service: proto.ClientService}, nil,
		endpoint.Element{Name: proto.ElemOp, Data: []byte(proto.OpSliceDeliver)},
		endpoint.Element{Name: proto.ElemSlices, Data: append(proto.AppendSliceHead(nil, "bench", string(senderID), 0, len(slice)), slice...)})
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

func TestGateDeliverSlice(t *testing.T) { perfgate.Run(t, BenchmarkDeliverSlice, 11, perfgate.NoLimit) }

// BenchmarkRelayRoundDirect is the broker's side of one relayed round,
// all 16 recipients online: the broker's Dispatch hands the parsed upload
// to the relayRound handler EnableBrokerRelay registers, which checks the
// sender on the record Dispatch read, parses the round, checks each
// recipient against its peer table, pushes each slice and answers the
// five counts. The slices are cut into their push frames as they are
// built, and the loop asserts the pushes byte for byte: each carries
// d.Slice(i). What the round allocates is the round parsed, its Merkle
// tree, the group's string, a frame per push and the answer.
func BenchmarkRelayRoundDirect(b *testing.B) {
	const n = 16
	fabric := &pushCapture{frames: make(map[simnet.NodeID][]byte)}
	db := userdb.NewStoreIter(4)
	br, err := broker.New(broker.Config{Name: "bench-broker", PeerID: "urn:jxta:cbid-broker", Net: fabric, DB: broker.LocalDB(db)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(br.Close)
	rly, err := EnableBrokerRelay(br, RelayConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rly.Close)
	const sender keys.PeerID = "urn:jxta:cbid-sender"
	br.RegisterPeer(sender, "sender", []string{"bench"})
	peers := make([]keys.PeerID, n)
	recipients := make([]*keys.PublicKey, n)
	chunk := make([]int, n)
	for i := range peers {
		peers[i] = keys.PeerID(fmt.Sprintf("urn:jxta:cbid-recv-%02d", i))
		br.RegisterPeer(peers[i], fmt.Sprintf("recv%02d", i), []string{"bench"})
		recipients[i], chunk[i] = recvKP.Public(), i
	}
	d, err := SealGroupDetached(senderKP, sender, "bench", make([]byte, 1024), recipients)
	if err != nil {
		b.Fatal(err)
	}
	upload, err := endpoint.ParseFrame(endpoint.NewFrame(endpoint.Route{Src: sender, Service: proto.BrokerService},
		relayRoundMsg("bench", peers, d, chunk, 0).Elements...))
	if err != nil {
		b.Fatal(err)
	}
	round := func() {
		resp := br.Dispatch(sender, upload.Msg)
		if ok, token := proto.IsOK(resp); !ok || countOf(resp, proto.ElemRelayDirect) != n {
			b.Fatalf("round answered ok=%v %q, %d direct of %d", ok, token, countOf(resp, proto.ElemRelayDirect), n)
		}
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	for i, id := range peers {
		f, err := endpoint.ParseFrame(fabric.last(simnet.NodeID(id)))
		if err != nil {
			b.Fatalf("push to recipient %d: %v", i, err)
		}
		section, _ := f.Msg.Get(proto.ElemSlices)
		recs, err := proto.ParseSliceRecords(section)
		if rec, _ := recs.Next(); err != nil || !bytes.Equal(rec.Slice, d.Slice(i)) || string(rec.Group) != "bench" || string(rec.Origin) != string(sender) {
			b.Fatalf("push to recipient %d carries %d bytes that are not its slice (%v)", i, len(rec.Slice), err)
		}
		if _, more := recs.Next(); more {
			b.Fatalf("push to recipient %d carries more than its slice", i)
		}
	}
	if got := rly.Metrics().Enqueued; got != 0 {
		b.Fatalf("%d slices queued with every recipient online", got)
	}
}

func TestGateRelayRoundDirect(t *testing.T) {
	perfgate.Run(t, BenchmarkRelayRoundDirect, 25, perfgate.NoLimit)
}

// drainSlices is how many slices BenchmarkDrainPush queues for its
// returning peer: one drain's worth at cmd/perf's offline-drain (seed 7).
const drainSlices = 40

// BenchmarkDrainPush is the broker's side of a returning peer's drain: 40
// slices of a 1 KiB round queued while it was away, pushed when its login
// flushes the queue. An op is the drain, from Flush to the last slice on
// the fabric; queueing the slices is not timed. Each op drains a peer of
// its own, so that no drain still finishing takes the next op's slices.
// The relay hands the broker the queue as one batch and the broker pushes
// it as one frame, which is what a drain allocates.
func BenchmarkDrainPush(b *testing.B) {
	fabric := &gatedFabric{pushCapture: pushCapture{frames: make(map[simnet.NodeID][]byte)}}
	db := userdb.NewStoreIter(4)
	br, err := broker.New(broker.Config{Name: "bench-broker", PeerID: "urn:jxta:cbid-broker", Net: fabric, DB: broker.LocalDB(db)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(br.Close)
	rly, err := EnableBrokerRelay(br, RelayConfig{QueueCap: drainSlices})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rly.Close)
	const sender keys.PeerID = "urn:jxta:cbid-sender"
	br.RegisterPeer(sender, "sender", []string{"bench"})
	d, err := SealGroupDetached(senderKP, sender, "bench", make([]byte, 1024), []*keys.PublicKey{recvKP.Public()})
	if err != nil {
		b.Fatal(err)
	}
	item := relay.Item{From: sender, Group: "bench", Payload: d.Slice(0)}
	var flushed uint64
	drain := func(i int) {
		// In no group: its login tells no one.
		item.To = keys.PeerID(fmt.Sprintf("urn:jxta:cbid-returning-%d", i))
		br.RegisterPeer(item.To, "returning", nil)
		fabric.away.Store(true)
		for j := 0; j < drainSlices; j++ {
			if rly.Submit(item) != relay.SubmitQueued {
				b.Fatal("a slice for the absent peer was not queued")
			}
		}
		fabric.away.Store(false)
		flushed += drainSlices
		b.StartTimer()
		rly.Flush(item.To)
		for rly.Metrics().DeliveredFlushed < flushed {
			runtime.Gosched()
		}
		b.StopTimer()
	}
	b.StopTimer()
	drain(0)
	frames := fabric.sent.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		drain(i)
	}
	if got := fabric.sent.Load() - frames; got != int64(b.N) {
		b.Fatalf("%d drains of %d slices pushed %d frames, want one a drain", b.N, drainSlices, got)
	}
	f, err := endpoint.ParseFrame(fabric.last(simnet.NodeID(item.To)))
	if err != nil {
		b.Fatal(err)
	}
	section, _ := f.Msg.Get(proto.ElemSlices)
	recs, err := proto.ParseSliceRecords(section)
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	for rec, ok := recs.Next(); ok; rec, ok = recs.Next() {
		if !bytes.Equal(rec.Slice, item.Payload) || string(rec.Origin) != string(sender) || string(rec.Group) != "bench" {
			b.Fatalf("record %d of the drain's push is not the queued slice", n)
		}
		n++
	}
	if n != drainSlices {
		b.Fatalf("the drain's push carries %d records, want %d", n, drainSlices)
	}
}

// TestGateDrainPush holds a 40-slice drain to its one frame.
func TestGateDrainPush(t *testing.T) { perfgate.Run(t, BenchmarkDrainPush, 1, perfgate.NoLimit) }

// gatedFabric is a pushCapture that counts the frames it is sent and
// reports every node detached while away is set.
type gatedFabric struct {
	pushCapture
	away atomic.Bool
	sent atomic.Int64
}

func (g *gatedFabric) Attached(simnet.NodeID) bool { return !g.away.Load() }

func (g *gatedFabric) Send(from, to simnet.NodeID, frame []byte) error {
	g.sent.Add(1)
	return g.pushCapture.Send(from, to, frame)
}

// pushCapture is a broker's fabric that delivers nothing: it keeps the
// last frame sent to each node, and reports every node attached.
type pushCapture struct {
	mu     sync.Mutex
	frames map[simnet.NodeID][]byte
}

func (c *pushCapture) Attach(simnet.NodeID, simnet.Handler) error { return nil }
func (c *pushCapture) Detach(simnet.NodeID)                       {}
func (c *pushCapture) Attached(simnet.NodeID) bool                { return true }

func (c *pushCapture) Send(_, to simnet.NodeID, frame []byte) error {
	c.mu.Lock()
	c.frames[to] = frame
	c.mu.Unlock()
	return nil
}

func (c *pushCapture) last(id simnet.NodeID) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames[id]
}

// benchPresenceNotices delivers to r b.N times the broker's notice that
// joiner came online in group bench, in the one buffer again and again:
// nothing on this path writes to it or keeps a view of it. No notice
// parses a document or caches a record.
func benchPresenceNotices(b *testing.B, r *benchRecipientEnd) {
	push, err := endpoint.BuildFrame(endpoint.Route{Src: "urn:jxta:cbid-broker", Service: proto.ClientService}, nil,
		endpoint.Element{Name: proto.ElemOp, Data: []byte(proto.OpPresencePush)},
		endpoint.Element{Name: proto.ElemPeer, Data: []byte("urn:jxta:cbid-joiner")},
		endpoint.Element{Name: proto.ElemGroup, Data: []byte("bench")},
		endpoint.Element{Name: proto.ElemUser, Data: []byte("joiner")},
		endpoint.Element{Name: proto.ElemStatus, Data: []byte(advert.StatusOnline)})
	if err != nil {
		b.Fatal(err)
	}
	records, parsed := r.s.Cache().Len(), advert.ParseCalls()
	r.hop.deliver(simnet.Packet{Payload: push}) // the endpoint interns the broker's ID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.hop.deliver(simnet.Packet{Payload: push})
	}
	b.StopTimer()
	if p := advert.ParseCalls() - parsed; p != 0 {
		b.Fatalf("%d advertisement parses handling %d presence notices, want none", p, b.N)
	}
	if got := r.s.Cache().Len(); got != records {
		b.Fatalf("presence notices moved the cache %d -> %d records", records, got)
	}
}

// BenchmarkPresenceNotice is a resident of group bench told of a join,
// with a handler for the event: the endpoint parses the broker's presence
// notice into a table lent for the call and the client emits the
// PresenceUpdate from its four elements. What it allocates is the event's
// peer and user strings; the group is the client's own string and the
// status the package constant.
func BenchmarkPresenceNotice(b *testing.B) {
	r := benchRecipient(b)
	r.login(b, "bench")
	told := 0
	r.s.Bus().Subscribe(events.PresenceUpdate, func(e events.Event) {
		if e.From == "urn:jxta:cbid-joiner" && e.Group == "bench" && e.Attr("user") == "joiner" && e.Attr("status") == advert.StatusOnline {
			told++
		}
	})
	benchPresenceNotices(b, r)
	if told != b.N+1 {
		b.Fatalf("%d presence updates emitted for %d notices", told, b.N+1)
	}
}

func TestGatePresenceNotice(t *testing.T) { perfgate.Run(t, BenchmarkPresenceNotice, 2, 20000) }

// BenchmarkPresenceNoticeUnheard is the same notice at a resident where
// nothing listens for PresenceUpdate: no event is built, and the notice's
// table is lent, so it allocates nothing.
func BenchmarkPresenceNoticeUnheard(b *testing.B) {
	r := benchRecipient(b)
	r.login(b, "bench")
	benchPresenceNotices(b, r)
}

func TestGatePresenceNoticeUnheard(t *testing.T) {
	perfgate.Run(t, BenchmarkPresenceNoticeUnheard, 0, 20000)
}

// BenchmarkRepushedAdvertisement is a resident pushed, again, the signed
// pipe advertisement it holds — what every resident is pushed when a
// peer re-joins, since a re-join's advertisement is byte for byte the
// last one. The cache finds the bytes it parsed the record from and puts
// that record again, received now: the new Record, no copy, no parse,
// and no table of the push's own. Nothing is verified here either way; a
// pushed advertisement is verified where it is used.
func BenchmarkRepushedAdvertisement(b *testing.B) {
	r := benchRecipient(b)
	_, doc := r.senderPipe(b)
	push := advPushFrame(b, doc.Canonical())
	r.hop.deliver(simnet.Packet{Payload: push}) // the first push parses and caches it
	records, parsed := r.s.Cache().Len(), advert.ParseCalls()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.hop.deliver(simnet.Packet{Payload: push})
	}
	b.StopTimer()
	if p := advert.ParseCalls() - parsed; p != 0 {
		b.Fatalf("%d advertisement parses for %d byte-identical re-pushes, want none", p, b.N)
	}
	if got := r.s.Cache().Len(); got != records {
		b.Fatalf("re-pushes moved the cache %d -> %d records", records, got)
	}
}

// TestGateRepushedAdvertisement holds a byte-identical re-push to its
// ceiling, and a push that differs in one byte — a byte of the signature
// value, which the parse does not read — to a parse that replaces the
// record, after which the old bytes are a stranger again.
func TestGateRepushedAdvertisement(t *testing.T) {
	perfgate.Run(t, BenchmarkRepushedAdvertisement, 1, 20000)

	r := benchRecipient(t)
	senderID, doc := r.senderPipe(t)
	wire := bytes.Clone(doc.Canonical())
	at := bytes.Index(wire, []byte("<SignatureValue>")) + len("<SignatureValue>")
	other := bytes.Clone(wire)
	other[at] ^= 1
	held := func() []byte {
		t.Helper()
		rec, err := r.s.Cache().Lookup(advert.TypePipe, advert.GroupPipeID(senderID, "bench"))
		if err != nil {
			t.Fatal(err)
		}
		return rec.Doc.Canonical()
	}
	for i, step := range []struct {
		wire   []byte
		parses uint64
	}{{wire, 1}, {wire, 0}, {other, 1}, {other, 0}, {wire, 1}} {
		parsed := advert.ParseCalls()
		r.hop.deliver(simnet.Packet{Payload: advPushFrame(t, step.wire)})
		if p := advert.ParseCalls() - parsed; p != step.parses {
			t.Fatalf("push %d: %d parses, want %d", i, p, step.parses)
		}
		if !bytes.Equal(held(), step.wire) {
			t.Fatalf("push %d: the cache holds other bytes than the last push's", i)
		}
		if n := r.s.Cache().Len(); n != 1 {
			t.Fatalf("push %d: %d records, want the sender's pipe alone", i, n)
		}
	}
}

// BenchmarkRefreshedAdvertisement is a resident told by a refresh that
// the owner of the signed pipe advertisement it holds published it again
// unchanged — what every resident is sent when a peer re-joins. The
// cache finds the record under the refresh's ID, its digest equal to the
// refresh's, and puts it again, received now: the new Record, no copy,
// no parse, no hash and no table of the refresh's own.
func BenchmarkRefreshedAdvertisement(b *testing.B) {
	r := benchRecipient(b)
	senderID, doc := r.senderPipe(b)
	r.hop.deliver(simnet.Packet{Payload: advPushFrame(b, doc.Canonical())}) // the first push parses and caches it
	refresh := advRefreshFrame(b, advert.GroupPipeID(senderID, "bench"), sha256.Sum256(doc.Canonical()))
	records, parsed := r.s.Cache().Len(), advert.ParseCalls()
	before, err := r.s.Cache().Lookup(advert.TypePipe, advert.GroupPipeID(senderID, "bench"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.hop.deliver(simnet.Packet{Payload: refresh})
	}
	b.StopTimer()
	if p := advert.ParseCalls() - parsed; p != 0 {
		b.Fatalf("%d advertisement parses for %d refreshes, want none", p, b.N)
	}
	after, err := r.s.Cache().Lookup(advert.TypePipe, advert.GroupPipeID(senderID, "bench"))
	if err != nil || r.s.Cache().Len() != records {
		b.Fatalf("refreshes moved the cache %d -> %d records (%v)", records, r.s.Cache().Len(), err)
	}
	if after == before || after.Doc != before.Doc {
		b.Fatal("the refreshes did not put the record they named again")
	}
}

// TestGateRefreshedAdvertisement holds a refresh delivered at a resident
// to no parse and to no more allocations than a byte-identical re-push
// (TestGateRepushedAdvertisement's ceiling).
func TestGateRefreshedAdvertisement(t *testing.T) {
	perfgate.Run(t, BenchmarkRefreshedAdvertisement, 1, 20000)
}

// advPushFrame is the broker's push of an advertisement's canonical bytes.
func advPushFrame(tb testing.TB, wire []byte) []byte {
	tb.Helper()
	push, err := endpoint.BuildFrame(endpoint.Route{Src: "urn:jxta:cbid-broker", Service: proto.ClientService}, nil,
		endpoint.Element{Name: proto.ElemOp, Data: []byte(proto.OpAdvPush)},
		endpoint.Element{Name: proto.ElemAdv, Data: wire})
	if err != nil {
		tb.Fatal(err)
	}
	return push
}

// advRefreshFrame is the broker's refresh of the pipe advertisement id
// whose canonical bytes hash to sum.
func advRefreshFrame(tb testing.TB, id string, sum [sha256.Size]byte) []byte {
	tb.Helper()
	push, err := endpoint.BuildFrame(endpoint.Route{Src: "urn:jxta:cbid-broker", Service: proto.ClientService}, nil,
		endpoint.Element{Name: proto.ElemOp, Data: []byte(proto.OpAdvRefresh)},
		endpoint.Element{Name: proto.ElemAdvID, Data: []byte(id)},
		endpoint.Element{Name: proto.ElemAdvSum, Data: sum[:]})
	if err != nil {
		tb.Fatal(err)
	}
	return push
}

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
func benchRecipient(b testing.TB) *benchRecipientEnd {
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
	r.s = &SecureClient{Client: cl, kp: recvKP, trust: trust, vcache: xdsig.NewVerifyCache(trust)}
	cl.SetEnvelopeHandlers(r.s.receivePipe, r.s.receiveSlice)
	cl.Bus().Subscribe(events.SecureMessage, func(events.Event) { r.delivered++ })
	return r
}

// oneHop is the transport of a recipient benchmarked alone: it keeps the
// receiver the endpoint attaches, which the benchmark calls as the
// fabric's delivery goroutine would, and sends nowhere. While answer is
// set it stands in for the broker: it answers each request the client
// sends with answer's elements, on the sending goroutine.
type oneHop struct {
	deliver simnet.Handler
	answer  []endpoint.Element
}

func (t *oneHop) Attach(_ simnet.NodeID, h simnet.Handler) error { t.deliver = h; return nil }
func (t *oneHop) Detach(simnet.NodeID)                           {}
func (t *oneHop) Attached(simnet.NodeID) bool                    { return true }

func (t *oneHop) Send(from, to simnet.NodeID, frame []byte) error {
	if t.answer == nil {
		return nil
	}
	f, err := endpoint.ParseFrame(frame)
	if err != nil || f.Corr != endpoint.CorrRequest {
		return nil
	}
	resp := endpoint.NewFrame(endpoint.Route{Src: keys.PeerID(to), Service: "jxta:resp", Corr: endpoint.CorrResponse, CorrID: f.CorrID}, t.answer...)
	t.deliver(simnet.Packet{From: to, To: from, Payload: resp})
	return nil
}

// login logs r's client in to group through its stand-in broker, which
// accepts it: the client binds the group's pipe and holds the group as
// one of its own.
func (r *benchRecipientEnd) login(tb testing.TB, group string) {
	tb.Helper()
	r.hop.answer = []endpoint.Element{{Name: proto.ElemOK, Data: []byte("1")}, {Name: proto.ElemGroups, Data: []byte(group)}}
	defer func() { r.hop.answer = nil }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.s.Connect(ctx, "urn:jxta:cbid-broker"); err != nil {
		tb.Fatal(err)
	}
	if err := r.s.Client.Login(ctx, "pw"); err != nil {
		tb.Fatal(err)
	}
	if !slices.Contains(r.s.Groups(), group) {
		tb.Fatalf("logged in to %q, not %q", r.s.Groups(), group)
	}
}

// senderPipe is the group pipe advertisement of senderKP's peer in
// "bench", signed under a credential r's broker issued.
func (r *benchRecipientEnd) senderPipe(tb testing.TB) (keys.PeerID, *xmldoc.Element) {
	tb.Helper()
	senderID, err := keys.CBID(senderKP.Public())
	if err != nil {
		tb.Fatal(err)
	}
	senderCred, err := cred.Issue(r.brokerKP, r.brokerCred.Subject, senderID, "sender", cred.RoleClient, senderKP.Public(), time.Hour)
	if err != nil {
		tb.Fatal(err)
	}
	doc, err := (&advert.Pipe{PipeID: advert.GroupPipeID(senderID, "bench"), PipeType: advert.PipeUnicast, PeerID: senderID, Group: "bench"}).Document()
	if err != nil {
		tb.Fatal(err)
	}
	if err := xdsig.Sign(doc, senderKP, senderCred, r.brokerCred); err != nil {
		tb.Fatal(err)
	}
	return senderID, doc
}
