// Benchmarks regenerating the paper's evaluation (§5) and the ablations
// PERF.md reports. Each Benchmark maps to one experiment:
//
//	E1  BenchmarkJoinPlain / BenchmarkJoinSecure   — §5 join overhead (≈81.76% in the paper)
//	F2  BenchmarkMsgPeerPlain / BenchmarkMsgPeerSecure — Figure 2 (overhead vs size)
//	A1  BenchmarkJoinSecureKeySize                 — RSA modulus ablation
//	A2  BenchmarkEnvelopeMode                      — envelope mode ablation
//	A3  BenchmarkMsgPeerGroupSecure                — group fan-out ablation
//	A4  BenchmarkSignedAdvertisement               — signed-advertisement pipeline
//	P4  BenchmarkRelayWireBytes                    — O(N²)→O(N) round wire bytes
//	P5  BenchmarkRelayDelivery                     — relay slice+route+drain under churn
//	P6  BenchmarkRelayDrainDurable                 — same drain on the crash-safe WAL (persistence tax)
//
// The cmd/benchjoin and cmd/benchmsg binaries print the same experiments
// as paper-style tables with modeled wire time; the benchmarks here
// report raw compute cost per operation.
package jxtaoverlay_test

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/bench"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/parallel"
	"jxtaoverlay/internal/relay"
	"jxtaoverlay/internal/telemetry"
	"jxtaoverlay/internal/trace"
	"jxtaoverlay/internal/xdsig"
	"jxtaoverlay/internal/xmldoc"
)

func newEnv(b *testing.B, opts ...bench.EnvOption) *bench.Env {
	b.Helper()
	env, err := bench.NewEnv(opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(env.Close)
	return env
}

// --- E1: network join ---

func BenchmarkJoinPlain(b *testing.B) {
	env := newEnv(b)
	alias, password, err := env.AddUser()
	if err != nil {
		b.Fatal(err)
	}
	cl, err := env.PlainClient(alias)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Connect(ctx, env.Broker.PeerID()); err != nil {
			b.Fatal(err)
		}
		if err := cl.Login(ctx, password); err != nil {
			b.Fatal(err)
		}
		if err := cl.Logout(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinSecure(b *testing.B) {
	env := newEnv(b)
	alias, password, err := env.AddUser()
	if err != nil {
		b.Fatal(err)
	}
	sc, err := env.SecureClient(alias, core.ModeFull)
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sc.SecureConnection(ctx, env.Broker.PeerID()); err != nil {
			b.Fatal(err)
		}
		if err := sc.SecureLogin(ctx, password); err != nil {
			b.Fatal(err)
		}
		if err := sc.Logout(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// --- A1: key-size ablation on the secure join ---

func BenchmarkJoinSecureKeySize(b *testing.B) {
	for _, bits := range []int{1024, 2048} {
		b.Run(fmt.Sprintf("rsa%d", bits), func(b *testing.B) {
			env := newEnv(b, bench.WithKeyBits(bits))
			alias, password, err := env.AddUser()
			if err != nil {
				b.Fatal(err)
			}
			sc, err := env.SecureClient(alias, core.ModeFull)
			if err != nil {
				b.Fatal(err)
			}
			defer sc.Close()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sc.SecureConnection(ctx, env.Broker.PeerID()); err != nil {
					b.Fatal(err)
				}
				if err := sc.SecureLogin(ctx, password); err != nil {
					b.Fatal(err)
				}
				if err := sc.Logout(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- F2: message overhead vs size ---

var f2Sizes = []int{16, 256, 4096, 65536, 1 << 20}

type msgBenchPair struct {
	sendPlain  func(text string) error
	sendSecure func(text string) error
	waitPlain  chan struct{}
	waitSecure chan struct{}
}

func newMsgBenchPair(b *testing.B, env *bench.Env, mode core.Mode) *msgBenchPair {
	b.Helper()
	ctx := context.Background()
	mk := func() (alias, pw string) {
		alias, pw, err := env.AddUser()
		if err != nil {
			b.Fatal(err)
		}
		return alias, pw
	}
	aliasA, pwA := mk()
	aliasB, pwB := mk()
	pa, err := env.PlainClient(aliasA)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(pa.Close)
	pb, err := env.PlainClient(aliasB)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(pb.Close)
	must := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	must(pa.Connect(ctx, env.Broker.PeerID()))
	must(pa.Login(ctx, pwA))
	must(pb.Connect(ctx, env.Broker.PeerID()))
	must(pb.Login(ctx, pwB))

	aliasC, pwC := mk()
	aliasD, pwD := mk()
	sa, err := env.SecureClient(aliasC, mode)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sa.Close)
	sb, err := env.SecureClient(aliasD, mode)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sb.Close)
	must(sa.SecureConnection(ctx, env.Broker.PeerID()))
	must(sa.SecureLogin(ctx, pwC))
	must(sb.SecureConnection(ctx, env.Broker.PeerID()))
	must(sb.SecureLogin(ctx, pwD))

	p := &msgBenchPair{
		waitPlain:  make(chan struct{}, 64),
		waitSecure: make(chan struct{}, 64),
	}
	pb.Bus().Subscribe(events.MessageReceived, func(events.Event) { p.waitPlain <- struct{}{} })
	sb.Bus().Subscribe(events.SecureMessage, func(events.Event) { p.waitSecure <- struct{}{} })
	p.sendPlain = func(text string) error {
		if err := pa.SendMsgPeer(ctx, pb.PeerID(), "bench", text); err != nil {
			return err
		}
		<-p.waitPlain
		return nil
	}
	p.sendSecure = func(text string) error {
		if err := sa.SecureMsgPeer(ctx, sb.PeerID(), "bench", text); err != nil {
			return err
		}
		<-p.waitSecure
		return nil
	}
	// Warm both paths (pipe resolution).
	must(p.sendPlain("warm"))
	must(p.sendSecure("warm"))
	return p
}

func benchPayload(size int) string {
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte('a' + i%26)
	}
	return string(buf)
}

func BenchmarkMsgPeerPlain(b *testing.B) {
	env := newEnv(b)
	pair := newMsgBenchPair(b, env, core.ModeFull)
	for _, size := range f2Sizes {
		text := benchPayload(size)
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if err := pair.sendPlain(text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMsgPeerSecure(b *testing.B) {
	env := newEnv(b)
	pair := newMsgBenchPair(b, env, core.ModeFull)
	for _, size := range f2Sizes {
		text := benchPayload(size)
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if err := pair.sendSecure(text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- A2: envelope mode ablation (pure crypto path, no network) ---

func BenchmarkEnvelopeMode(b *testing.B) {
	sender, err := keys.NewKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	recv, err := keys.NewKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	body := []byte(benchPayload(4096))
	for _, mode := range []core.Mode{core.ModeFull, core.ModeSign, core.ModeEncrypt} {
		b.Run(mode.String(), func(b *testing.B) {
			b.SetBytes(4096)
			for i := 0; i < b.N; i++ {
				sealed, err := core.Seal(sealSigner(sender, mode), "urn:jxta:cbid-s", "g", body, recv.Public(), mode)
				if err != nil {
					b.Fatal(err)
				}
				opened, err := core.Open(recv, sealed.Bytes())
				if err != nil {
					b.Fatal(err)
				}
				if opened.Signed() {
					if err := opened.VerifySignature(sender.Public()); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func sealSigner(kp *keys.KeyPair, mode core.Mode) *keys.KeyPair {
	if mode == core.ModeEncrypt {
		return nil
	}
	return kp
}

// --- A3: group fan-out ---

func BenchmarkMsgPeerGroupSecure(b *testing.B) {
	env := newEnv(b)
	ctx := context.Background()
	for _, size := range []int{2, 4, 8} {
		group := fmt.Sprintf("bench-fan%d", size)
		var sender *core.SecureClient
		for i := 0; i < size; i++ {
			alias, pw, err := env.AddUser(group)
			if err != nil {
				b.Fatal(err)
			}
			sc, err := env.SecureClient(alias, core.ModeFull)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(sc.Close)
			if err := sc.SecureConnection(ctx, env.Broker.PeerID()); err != nil {
				b.Fatal(err)
			}
			if err := sc.SecureLogin(ctx, pw); err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				sender = sc
			}
		}
		b.Run(fmt.Sprintf("members%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sender.SecureMsgPeerGroup(ctx, group, "fanout"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- P1: canonicalization fast path ---

// canonBenchTree mirrors the shape of a signed pipe advertisement — the
// document the hot paths canonicalize most often.
func canonBenchTree() *xmldoc.Element {
	doc := xmldoc.New("PipeAdvertisement", "")
	doc.AddText("Id", "urn:jxta:pipe-0123456789abcdef0123456789abcdef")
	doc.AddText("Type", "JxtaUnicast")
	doc.AddText("Name", "bench")
	doc.AddText("PeerID", "urn:jxta:cbid-0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	doc.AddText("Group", "bench")
	sig := xmldoc.New("Signature", "")
	si := xmldoc.New("SignedInfo", "")
	si.AddText("CanonicalizationMethod", "jxta-overlay-c14n-v1")
	si.AddText("SignatureMethod", "rsa-sha256-pkcs1v15")
	si.AddText("DigestMethod", "sha256")
	si.AddText("DigestValue", "3q2+7wAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA=")
	sig.Add(si)
	sig.AddText("SignatureValue", "c2lnbmF0dXJlLXZhbHVlLWJlbmNobWFyay1wYWRkaW5nLXNpZ25hdHVyZS12YWx1ZQ==")
	ki := xmldoc.New("KeyInfo", "")
	cr := xmldoc.New("Credential", "")
	cr.AddText("Subject", "urn:jxta:cbid-0123456789abcdef")
	cr.AddText("Key", "TUlHZk1BMEdDU3FHU0liM0RRRUJBUVVBQTRHTkFEQ0JpUUtCZ1FERGV4YW1wbGU=")
	ki.Add(cr)
	sig.Add(ki)
	doc.Add(sig)
	return doc
}

func BenchmarkCanonical(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		// Build + serialize every iteration: no memo can help.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			doc := canonBenchTree()
			_ = doc.Canonical()
		}
	})
	b.Run("warm", func(b *testing.B) {
		// Repeated canonicalization of an unchanged document — the broker
		// serving the same advertisement to many peers.
		doc := canonBenchTree()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = doc.Canonical()
		}
	})
	b.Run("skip-signature", func(b *testing.B) {
		// The verification body serialization (document minus Signature),
		// which used to be Clone+RemoveChildren+Canonical.
		doc := canonBenchTree()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = doc.CanonicalSkip("Signature")
		}
	})
}

// --- P2: cold vs warm trusted verification ---

func BenchmarkVerifyTrusted(b *testing.B) {
	env := newEnv(b)
	trust, err := env.TrustStore()
	if err != nil {
		b.Fatal(err)
	}
	kp, err := keys.NewKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	id, err := keys.CBID(kp.Public())
	if err != nil {
		b.Fatal(err)
	}
	clientCred, err := env.Sec.IssueClientCredential(id, "bench-signer", kp.Public())
	if err != nil {
		b.Fatal(err)
	}
	doc, err := (&advert.Pipe{
		PipeID:   "urn:jxta:pipe-bench-verify",
		PipeType: advert.PipeUnicast,
		PeerID:   id,
		Group:    "bench",
	}).Document()
	if err != nil {
		b.Fatal(err)
	}
	if err := xdsig.Sign(doc, kp, clientCred, env.Sec.Credential()); err != nil {
		b.Fatal(err)
	}
	now := time.Now()
	b.Run("cold", func(b *testing.B) {
		// The uncached path pays canonicalization + SHA-256 + three RSA
		// verifications (signature, two chain links) per call.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := xdsig.VerifyTrusted(doc, trust, now); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		vc := xdsig.NewVerifyCache(trust, 0)
		if _, err := vc.VerifyTrusted(doc, now); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := vc.VerifyTrusted(doc, now); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- P3: secure fan-out, N=1/10/100 ---
//
// One round = verify every recipient's signed pipe advertisement
// (cached after the first encounter) and seal the message for the whole
// set. Since PR 2 a round is a single SealGroup: ONE header signature
// plus one cheap key wrap per recipient, instead of one Seal (and one
// signature) per recipient — the amortization the paper's §5 numbers
// say dominates fan-out cost. The benchmark asserts the amortization
// via the key pair's signature call counter.

func BenchmarkFanOutSecure(b *testing.B) {
	env := newEnv(b)
	trust, err := env.TrustStore()
	if err != nil {
		b.Fatal(err)
	}
	sender, err := keys.NewKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	senderID, err := keys.CBID(sender.Public())
	if err != nil {
		b.Fatal(err)
	}
	recvKP, err := keys.NewKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	recvID, err := keys.CBID(recvKP.Public())
	if err != nil {
		b.Fatal(err)
	}
	recvCred, err := env.Sec.IssueClientCredential(recvID, "bench-recv", recvKP.Public())
	if err != nil {
		b.Fatal(err)
	}
	body := []byte(benchPayload(1024))
	for _, n := range []int{1, 10, 100} {
		// One signed pipe advertisement per recipient, as a sender doing a
		// group fan-out would verify.
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
			if err := xdsig.Sign(doc, recvKP, recvCred, env.Sec.Credential()); err != nil {
				b.Fatal(err)
			}
			docs[i] = doc
		}
		now := time.Now()
		b.Run(fmt.Sprintf("recipients%d", n), func(b *testing.B) {
			vc := xdsig.NewVerifyCache(trust, 256)
			signsBefore := sender.SignCalls()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				recipients := make([]*keys.PublicKey, len(docs))
				parallel.ForEach(runtime.GOMAXPROCS(0), len(docs), func(j int) {
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
				if _, err := core.SealGroup(sender, senderID, "bench", body, recipients); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// The round contract: exactly one header signature per round,
			// regardless of recipient count.
			if got, want := sender.SignCalls()-signsBefore, uint64(b.N); got != want {
				b.Fatalf("%d rounds cost %d signatures, want exactly %d (1 per round)", b.N, got, want)
			}
		})
	}
}

// --- A4: signed advertisement pipeline ---

func BenchmarkSignedAdvertisement(b *testing.B) {
	env := newEnv(b)
	trust, err := env.TrustStore()
	if err != nil {
		b.Fatal(err)
	}
	kp, err := keys.NewKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	id, err := keys.CBID(kp.Public())
	if err != nil {
		b.Fatal(err)
	}
	clientCred, err := env.Sec.IssueClientCredential(id, "bench-signer", kp.Public())
	if err != nil {
		b.Fatal(err)
	}
	brokerCred := env.Sec.Credential()
	pipeAdv := &advert.Pipe{
		PipeID:   "urn:jxta:pipe-bench",
		PipeType: advert.PipeUnicast,
		PeerID:   id,
		Group:    "bench",
	}
	b.Run("sign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			doc, err := pipeAdv.Document()
			if err != nil {
				b.Fatal(err)
			}
			if err := xdsig.Sign(doc, kp, clientCred, brokerCred); err != nil {
				b.Fatal(err)
			}
		}
	})
	doc, err := pipeAdv.Document()
	if err != nil {
		b.Fatal(err)
	}
	if err := xdsig.Sign(doc, kp, clientCred, brokerCred); err != nil {
		b.Fatal(err)
	}
	b.Run("verify", func(b *testing.B) {
		now := time.Now()
		for i := 0; i < b.N; i++ {
			if _, err := xdsig.VerifyTrusted(doc, trust, now); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The broker's actual ingest unit of work: wire bytes → parse →
	// full trusted verification. "fastpath" parses with ParseCanonical
	// (memo-seeded, so the verification serializations are pointer
	// reads); "reference" is the pre-overhaul encoding/xml path.
	raw := append([]byte(nil), doc.Canonical()...)
	b.Run("receive-fastpath", func(b *testing.B) {
		now := time.Now()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			parsed, err := xmldoc.ParseCanonical(raw)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := xdsig.VerifyTrusted(parsed, trust, now); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("receive-reference", func(b *testing.B) {
		now := time.Now()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			parsed, err := xmldoc.ParseBytes(raw)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := xdsig.VerifyTrusted(parsed, trust, now); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- P4/P5: broker relay — wire bytes and store-and-forward delivery ---
//
// The relay turns group fan-out from "send the full O(N)-wrap wire to
// every member" (O(N²) bytes per round) into "upload once, deliver one
// O(log N)-proof slice per member" (O(N) bytes per round). P4 measures
// the byte economics (reported as custom metrics); P5 measures the
// broker-side work under churn: re-slice the uploaded round, route 30%
// of the slices through the offline queues, drain them on the presence
// flush.

func relayBenchRound(b *testing.B, n int) (*core.DetachedRound, []keys.PeerID) {
	b.Helper()
	sender, err := keys.NewKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	senderID, err := keys.CBID(sender.Public())
	if err != nil {
		b.Fatal(err)
	}
	pubs := make([]*keys.PublicKey, n)
	ids := make([]keys.PeerID, n)
	for i := 0; i < n; i++ {
		kp, err := keys.NewKeyPair()
		if err != nil {
			b.Fatal(err)
		}
		pubs[i] = kp.Public()
		if ids[i], err = keys.CBID(kp.Public()); err != nil {
			b.Fatal(err)
		}
	}
	d, err := core.SealGroupDetached(sender, senderID, "bench", []byte(benchPayload(1024)), pubs)
	if err != nil {
		b.Fatal(err)
	}
	return d, ids
}

func BenchmarkRelayWireBytes(b *testing.B) {
	for _, n := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("recipients%d", n), func(b *testing.B) {
			d, _ := relayBenchRound(b, n)
			upload := d.Wire()
			var slices [][]byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The relay's per-round byte surgery: parse the uploaded
				// wire, cut every recipient's slice.
				sliced, err := core.SliceRound(upload)
				if err != nil {
					b.Fatal(err)
				}
				slices = sliced.Slices()
			}
			b.StopTimer()
			total := 0
			for _, s := range slices {
				total += len(s)
			}
			// Relayed cost: one upload + one slice per recipient.
			b.ReportMetric(float64(len(upload)+total)/float64(n), "wireB/rcpt")
			// Client-side fan-out cost: every member gets the full wire.
			b.ReportMetric(float64(len(upload)), "fullwireB/rcpt")
		})
	}
}

// --- P6: receive-path parse and end-to-end slice open ---
//
// Every inbound wire funnels through one XML parse. P6 measures the
// cold parse of a signed-advertisement-shaped document on the fast path
// (xmldoc.ParseCanonical: zero-copy lexer + slab allocation + memo
// seeding) against the encoding/xml reference path, the memo-seeded
// parse→Canonical round (the verification serialization that the
// seeding turns into a pointer read), and the full receive cost of one
// relayed round slice (decrypt + parse + bindings + signature).

func BenchmarkParseCold(b *testing.B) {
	raw := append([]byte(nil), canonBenchTree().Canonical()...)
	b.Run("canonical", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if _, err := xmldoc.ParseCanonical(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encodingxml", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if _, err := xmldoc.ParseBytes(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkParseCanonical(b *testing.B) {
	// Parse already-canonical input, then read the canonical bytes back —
	// the exact sequence the verification paths run. The memo seeding
	// makes the Canonical() call a pointer read returning the input
	// subslice; the benchmark asserts that, so a regression to
	// re-serialization fails loudly rather than just slowing down.
	raw := append([]byte(nil), canonBenchTree().Canonical()...)
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		doc, err := xmldoc.ParseCanonical(raw)
		if err != nil {
			b.Fatal(err)
		}
		got := doc.Canonical()
		if &got[0] != &raw[0] {
			b.Fatal("canonical memo not seeded from input")
		}
	}
}

func BenchmarkOpenSlice(b *testing.B) {
	// One recipient's full receive path for a 100-member relayed round:
	// unwrap the CEK, AEAD-open, parse the signed header (fast path,
	// memo-seeded), check body digest + Merkle slice binding, verify the
	// header signature over the seeded serialization.
	sender, err := keys.NewKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	senderID, err := keys.CBID(sender.Public())
	if err != nil {
		b.Fatal(err)
	}
	recv, err := keys.NewKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	recipients := make([]*keys.PublicKey, 100)
	for i := range recipients {
		recipients[i] = recv.Public()
	}
	d, err := core.SealGroupDetached(sender, senderID, "bench", []byte(benchPayload(1024)), recipients)
	if err != nil {
		b.Fatal(err)
	}
	wire := d.Slice(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := core.OpenSlice(recv, wire, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := o.VerifySignature(sender.Public()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRelayDelivery(b *testing.B) {
	for _, n := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("recipients%d", n), func(b *testing.B) {
			d, ids := relayBenchRound(b, n)
			upload := d.Wire()
			nOffline := n * 30 / 100
			idx := make(map[keys.PeerID]int, n)
			for i, id := range ids {
				idx[id] = i
			}
			var churnedOnline atomic.Bool
			var delivered atomic.Uint64
			r, err := relay.New(relay.Config{Shards: 4, QueueCap: n + 1, TTL: time.Hour},
				func(id keys.PeerID) bool {
					return idx[id] >= nOffline || churnedOnline.Load()
				},
				func(it relay.Item) error {
					delivered.Add(1)
					return nil
				})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Churn phase: the first 30% of recipients are offline.
				churnedOnline.Store(false)
				sliced, err := core.SliceRound(upload)
				if err != nil {
					b.Fatal(err)
				}
				for j, s := range sliced.Slices() {
					r.Submit(relay.Item{To: ids[j], From: "sender", Group: "bench", Payload: s})
				}
				// They return; drain the queues before the next round.
				churnedOnline.Store(true)
				for j := 0; j < nOffline; j++ {
					r.Flush(ids[j])
				}
				for delivered.Load() < uint64((i+1)*n) {
					runtime.Gosched()
				}
			}
		})
	}
}

// BenchmarkRelayDrainDurable is BenchmarkRelayDelivery/recipients100 on
// a WAL-backed relay: every queued slice is appended to the crash-safe
// log before it waits, and acked as it drains, with appends staged and
// fsyncs batched on a 2ms flush interval. The delta against the
// in-memory run is the WAL's software tax — syscalls, locking and
// copies on the drain path — which bench_compare.sh holds under 2x.
// The log lives on tmpfs when available so the gate tracks the code,
// not the benchmark machine's disk: each round queues ~75KB of slice
// payloads, and on a virtualized CI disk (measured 151-527 MB/s
// fdatasync throughput run-to-run) raw bandwidth drowns out any
// software regression the gate exists to catch. The real-disk
// persistence tax is reported in PERF.md instead.
func BenchmarkRelayDrainDurable(b *testing.B) {
	const n = 100
	b.Run(fmt.Sprintf("recipients%d", n), func(b *testing.B) {
		d, ids := relayBenchRound(b, n)
		upload := d.Wire()
		nOffline := n * 30 / 100
		idx := make(map[keys.PeerID]int, n)
		for i, id := range ids {
			idx[id] = i
		}
		var churnedOnline atomic.Bool
		var delivered atomic.Uint64
		cfg := relay.Config{Shards: 4, QueueCap: n + 1, TTL: time.Hour}
		cfg.WAL.Dir = b.TempDir()
		if _, err := os.Stat("/dev/shm"); err == nil {
			dir, err := os.MkdirTemp("/dev/shm", "walbench-")
			if err == nil {
				b.Cleanup(func() { os.RemoveAll(dir) })
				cfg.WAL.Dir = dir
			}
		}
		cfg.WAL.SyncInterval = 2 * time.Millisecond
		r, err := relay.New(cfg,
			func(id keys.PeerID) bool {
				return idx[id] >= nOffline || churnedOnline.Load()
			},
			func(it relay.Item) error {
				delivered.Add(1)
				return nil
			})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			churnedOnline.Store(false)
			sliced, err := core.SliceRound(upload)
			if err != nil {
				b.Fatal(err)
			}
			for j, s := range sliced.Slices() {
				r.Submit(relay.Item{To: ids[j], From: "sender", Group: "bench", Payload: s})
			}
			churnedOnline.Store(true)
			for j := 0; j < nOffline; j++ {
				r.Flush(ids[j])
			}
			for delivered.Load() < uint64((i+1)*n) {
				runtime.Gosched()
			}
		}
	})
}

// --- T1: telemetry instrument overhead ---

// BenchmarkTelemetryOverhead prices the metrics layer itself. The
// inline instruments (counter Inc, histogram Observe) are what hot
// paths pay per event — the gate holds them to single-digit
// nanoseconds and zero allocations, i.e. genuinely free next to the
// microsecond-scale paths they count. Snapshot is the pull-collector
// cost paid only when something scrapes /metrics, reported for scale.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("counter", func(b *testing.B) {
		reg := telemetry.New()
		c := reg.Counter("bench_events_total", "benchmark instrument")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram", func(b *testing.B) {
		reg := telemetry.New()
		h := reg.Histogram("bench_latency_ms", "benchmark instrument", telemetry.LatencyBucketsMS)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i % 400))
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		// A registry shaped like a real broker deployment: a few dozen
		// pull collectors plus inline instruments.
		reg := telemetry.New()
		var backing atomic.Uint64
		for i := 0; i < 30; i++ {
			reg.CounterFunc(fmt.Sprintf("bench_collector_%02d_total", i), "benchmark collector",
				func() float64 { return float64(backing.Load()) })
		}
		reg.Counter("bench_inline_total", "benchmark instrument")
		reg.Histogram("bench_inline_ms", "benchmark instrument", telemetry.LatencyBucketsMS)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			backing.Add(1)
			if s := reg.Snapshot(); len(s) == 0 {
				b.Fatal("empty snapshot")
			}
		}
	})
}

// BenchmarkTraceOverhead prices the span recorder at its three
// operating points. "unsampled" is the one that matters: it is what
// every instrumented operation pays when its trace lost the sampling
// coin flip — the budget is a Begin timestamp, the seeded hash compare
// and one atomic load, with ZERO heap allocations (gated absolutely in
// bench_compare.sh). "sampled" adds the ring write under a shard
// mutex; "read" is the /debug/traces scrape cost, which allocates by
// design (it builds a sorted copy) and is priced on wall time only.
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("unsampled", func(b *testing.B) {
		rec := trace.New(trace.Config{SampleRate: 0, Seed: 42})
		id := rec.NewID()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp := trace.Begin(id, trace.StageSend)
			rec.End(sp, trace.OutcomeOK)
		}
	})
	b.Run("sampled", func(b *testing.B) {
		rec := trace.New(trace.Config{SampleRate: 1, Seed: 42, Shards: 4, ShardCap: 4096})
		id := rec.NewID()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp := trace.Begin(id, trace.StageSend)
			rec.End(sp, trace.OutcomeOK)
		}
	})
	b.Run("read", func(b *testing.B) {
		rec := trace.New(trace.Config{SampleRate: 1, Seed: 42, Shards: 4, ShardCap: 1024})
		for i := 0; i < 4096; i++ {
			sp := trace.Begin(rec.NewID(), trace.StageSend)
			rec.End(sp, trace.OutcomeOK)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s := rec.Snapshot(); len(s) == 0 {
				b.Fatal("empty snapshot")
			}
		}
	})
}

// BenchmarkAuditOverhead prices the tamper-evident journal at the point
// every security decision pays it: one Record call on the staged
// (flusher-synced) path. The budget is one length-prefixed encode into
// a reused stage buffer, one SHA-256 over the framed bytes to advance
// the chain head, and one ring slot — ZERO heap allocations, gated
// absolutely in bench_compare.sh, because offense/refusal hot paths
// must not buy attribution with GC pressure. "synced" is the
// fdatasync-per-append policy, reported on wall time only: that cost
// is the disk's, not the encoder's, and deployments choose it
// deliberately.
func BenchmarkAuditOverhead(b *testing.B) {
	event := audit.Event{
		Kind: audit.KindRateLimited, Peer: "urn:jxta:cbid-bench",
		Op: "publishAdv", Reason: "rate-limited", Trace: 0xfeed,
	}
	b.Run("append", func(b *testing.B) {
		j, err := audit.Open(audit.Options{
			Dir: b.TempDir(), SyncInterval: 50 * time.Millisecond,
			SegmentBytes: 1 << 30, CheckpointEvery: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer j.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if j.Record(event) == 0 {
				b.Fatal("append failed")
			}
		}
	})
	b.Run("synced", func(b *testing.B) {
		j, err := audit.Open(audit.Options{
			Dir: b.TempDir(), SyncInterval: 0,
			SegmentBytes: 1 << 30, CheckpointEvery: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer j.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if j.Record(event) == 0 {
				b.Fatal("append failed")
			}
		}
	})
}
