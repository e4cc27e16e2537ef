package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/parallel"
	"jxtaoverlay/internal/perfgate"
	"jxtaoverlay/internal/proto"
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

// It reads 427, and 427–429 under the race detector, whose sync.Pool
// drops some of what is put back.
func TestGateFanOutRound(t *testing.T) { perfgate.Run(t, BenchmarkFanOutRound, 432, perfgate.NoLimit) }

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

func TestGateChannelMessage(t *testing.T) { perfgate.Run(t, BenchmarkChannelMessage, 6, 40000) }

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
	r := perfgate.Run(t, BenchmarkChannelBulk, 6, perfgate.NoLimit)
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
