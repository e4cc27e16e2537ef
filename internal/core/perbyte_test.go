package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"os"
	"testing"
	"time"

	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/waituntil"
)

// The per-byte path: what moving one large body costs, that the bytes on
// the wire are the documented layout, and that opening in
// place changed neither what a caller's wire looks like afterwards nor
// what the replay guard remembers.

// TestBulkPathAllocBytes: what a 256 KiB body allocates end to end. On
// the live path — SecureMsgPeer on an established channel, the fabric,
// the recipient's group pipe, its open and the SecureMessage it raises —
// the one buffer of the body's size is the frame the channel frame is
// sealed into, which the fabric delivers as it is. Seal → Service.Send →
// simnet → deliver → owned open has two by design: the wire Seal returns
// and the frame it is copied into. A copy more anywhere on either path
// (there were ten) breaks the bound.
func TestBulkPathAllocBytes(t *testing.T) {
	const bodyBytes = 256 << 10
	text := string(bytes.Repeat([]byte("0123456789abcdef"), bodyBytes/16))
	t.Run("SecureMsgPeer", func(t *testing.T) {
		_, alice, bob := securePair(t)
		got := events.NewCollector(bob.Bus())
		sendDelivered(t, alice, bob, got, "the envelope")
		waituntil.Must(t, 5*time.Second, func() bool { return ChannelTo(alice, bob.PeerID(), "math") }, "the accept never reached alice")
		// Room for stray deliveries, so that one fails the loop below rather
		// than parking bob's pump for good.
		arrived := make(chan bool, 16)
		defer bob.Bus().Subscribe(events.SecureMessage, func(e events.Event) {
			arrived <- string(e.Data) == text && e.Attr("mode") == ModeChannel.String()
		})()
		res := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				if err := alice.SecureMsgPeer(context.Background(), bob.PeerID(), "math", text); err != nil {
					tb.Fatal(err)
				}
				if !<-arrived {
					tb.Fatal("raised a message other than the one sent on the channel")
				}
			}
		})
		t.Logf("%d bytes per %d-byte body (%.2f×)", res.AllocedBytesPerOp(), bodyBytes, float64(res.AllocedBytesPerOp())/bodyBytes)
		if got, limit := res.AllocedBytesPerOp(), int64(bodyBytes*11/10); got > limit {
			t.Fatalf("a %d-byte body allocated %d bytes end to end (%.2f× the body), limit %d (1.1×)",
				bodyBytes, got, float64(got)/bodyBytes, limit)
		}
	})
	t.Run("Seal", func(t *testing.T) { bulkSealSend(t, text) })
}

// bulkSealSend is TestBulkPathAllocBytes for the exported Seal.
func bulkSealSend(t *testing.T, text string) {
	bodyBytes := len(text)
	net := simnet.NewNetwork(simnet.ProfileLocal)
	defer net.Close()
	a, err := endpoint.NewService(net, "urn:jxta:bulk-a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := endpoint.NewService(net, "urn:jxta:bulk-b")
	if err != nil {
		t.Fatal(err)
	}
	opened := make(chan error, 1)
	b.RegisterHandler("bulk", func(_ keys.PeerID, msg *endpoint.Message) *endpoint.Message {
		wire, _ := msg.Get(proto.ElemEnvelope)
		o, err := openWire(recvKP, wire, formEnvelope, nil, nil, nil, time.Now())
		if err == nil && string(o.Body) != text {
			err = errors.New("opened body differs from the one sealed")
		}
		opened <- err
		return nil
	})
	res := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			sealed, err := Seal(senderKP, "urn:jxta:bulk-a", "g", readOnlyBytes(text), recvKP.Public(), ModeFull)
			if err != nil {
				tb.Fatal(err)
			}
			if err := a.Send(b.PeerID(), "bulk", endpoint.NewMessage().Add(proto.ElemEnvelope, sealed.Bytes())); err != nil {
				tb.Fatal(err)
			}
			if err := <-opened; err != nil {
				tb.Fatal(err)
			}
		}
	})
	// A page-rounded buffer for each of the two, and small change.
	if got, limit := res.AllocedBytesPerOp(), int64(bodyBytes*23/10); got > limit {
		t.Fatalf("a %d-byte body allocated %d bytes end to end (%.2f× the body), limit %d (2.3×)",
			bodyBytes, got, float64(got)/float64(bodyBytes), limit)
	}
}

// TestSealWireLayoutUnchanged: the envelope wire is, byte for byte, the
// documented layout — asserted against offsets worked out here by hand,
// not against the helpers Seal itself uses (the header inside it is
// header.go's, which FuzzParseHeader and the attack suite's mirror pin). A
// wire assembled from the documented layout opens; a wire Seal made splits
// at exactly those offsets.
func TestSealWireLayoutUnchanged(t *testing.T) {
	pem, err := os.ReadFile("testdata/fuzz_open_key.pem")
	if err != nil {
		t.Fatal(err)
	}
	own, err := keys.ParseKeyPairPEM(pem)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte("the body travels raw, behind the header")

	// By hand: mode ‖ E[32] ‖ wrap[48] ‖ nonce[12] ‖ ct, ct = AES-GCM(
	// header ‖ body ) under a content key wrapped to own's agreement key
	// and bound to the nonce. The header names the key it is sealed to.
	ownFP, err := own.Public().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256(body)
	hdr, err := appendHeader(nil, &header{kind: ModeFull, sender: "urn:jxta:sender", group: "g", at: time.Now().UnixNano(), digest: digest[:], to: ownFP[:]}, senderKP)
	if err != nil {
		t.Fatal(err)
	}
	block := append(hdr, body...)
	cek, err := keys.NewContentKey()
	if err != nil {
		t.Fatal(err)
	}
	eph, err := keys.NewAgreementKey()
	if err != nil {
		t.Fatal(err)
	}
	nonce := bytes.Repeat([]byte{9}, keys.AEADNonceSize)
	wire := append([]byte{byte(ModeFull)}, eph.Share()...)
	if wire, err = eph.WrapTo(wire, cek, own.Public(), nonce); err != nil {
		t.Fatal(err)
	}
	wire = append(wire, nonce...)
	if wire, err = keys.AEADSealInPlace(cek, nonce, append(wire, block...), len(wire)); err != nil {
		t.Fatal(err)
	}
	o, err := Open(own, wire)
	if err != nil {
		t.Fatalf("a wire assembled from the documented layout does not open: %v", err)
	}
	if !bytes.Equal(o.Body, body) || o.Sender != "urn:jxta:sender" || o.VerifySignature(senderKP.Public()) != nil {
		t.Fatalf("hand-assembled wire opened to %+v", o)
	}

	// And back: cut a wire Seal made at the documented offsets.
	sealed, err := Seal(senderKP, "urn:jxta:sender", "g", body, own.Public(), ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	w := sealed.Bytes()
	if w[0] != byte(ModeFull) {
		t.Fatalf("mode byte %q", w[0])
	}
	gotEph, gotWrap := w[1:1+keys.ShareSize], w[1+keys.ShareSize:1+keys.ShareSize+keys.WrapSize]
	gotNonce, gotCT := w[1+keys.ShareSize+keys.WrapSize:1+keys.EnvelopePrefix], w[1+keys.EnvelopePrefix:]
	gotCEK, err := own.UnwrapFrom(gotEph, gotWrap, gotNonce)
	if err != nil {
		t.Fatal(err)
	}
	gotBlock, err := keys.AEADOpen(gotCEK[:], gotNonce, gotCT)
	if err != nil {
		t.Fatal(err)
	}
	h, gotBody, ok := parseHeader(gotBlock)
	if !ok || h.kind != ModeFull || !bytes.Equal(gotBody, body) || len(gotCT) != len(hdr)+len(body)+keys.AEADOverhead {
		t.Fatalf("block is not header ‖ body: %d ciphertext bytes for a %d-byte header and %d-byte body", len(gotCT), len(hdr), len(body))
	}
	if cap(w) != len(w) {
		t.Errorf("Seal sized its one buffer %d bytes too large", cap(w)-len(w))
	}
}

// TestOpenDoesNotMutateWire: the exported entry points leave the
// caller's wire as it was (tests, tools and the benchmark open one wire
// many times), and the body they return is not a view of it.
func TestOpenDoesNotMutateWire(t *testing.T) {
	for _, m := range pipelineForms {
		wire := forgeWire(t, m, []byte("read-only to its caller"), nil)
		before := bytes.Clone(wire)
		for i := 0; i < 2; i++ {
			o, err := openAs(m, recvKP, wire)
			if err != nil {
				t.Fatalf("%s, open %d: %v", m, i+1, err)
			}
			if !bytes.Equal(wire, before) {
				t.Fatalf("%s: the exported entry point wrote to its caller's wire", m)
			}
			o.Body[0] ^= 0xFF
			if !bytes.Equal(wire, before) {
				t.Fatalf("%s: the returned body aliases the caller's wire", m)
			}
		}
	}
}

// TestOwnedOpenReplayDigestIsOverReceivedBytes: the owned open overwrites
// the ciphertext it was handed, and the guard still remembers an envelope
// AS RECEIVED — the same bytes delivered again are a replay, and nothing
// was admitted under the digest of the half-plaintext buffer. A slice is
// refused again by its nonce alone: no digest of it is held at all.
func TestOwnedOpenReplayDigestIsOverReceivedBytes(t *testing.T) {
	for _, m := range []Mode{ModeFull, ModeSlice} {
		wire := forgeWire(t, m, bytes.Repeat([]byte("opened where it lies "), 8), nil)
		guard := NewReplayGuard(time.Minute, 16)
		frame := bytes.Clone(wire)
		o, err := openWire(recvKP, frame, formEnvelope|formSlice, nil, guard, nil, time.Now())
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if bytes.Equal(frame, wire) {
			t.Fatalf("%s: the owned open left the ciphertext in place — it did not open in place", m)
		}
		if !bytes.Contains(frame, o.Body) || !bytes.Contains(o.Body, []byte("opened where it lies")) {
			t.Fatalf("%s: the body is not a view of the delivered frame", m)
		}
		admitted := guard.Len()
		if _, err := openWire(recvKP, bytes.Clone(wire), formEnvelope|formSlice, nil, guard, nil, time.Now()); !errors.Is(err, ErrMessageReplayed) {
			t.Fatalf("%s: the same wire delivered twice: %v, want ErrMessageReplayed", m, err)
		}
		if guard.Len() != admitted || admitted != 1 {
			t.Fatalf("%s: guard holds %d entries after the open and %d after refused replays, want 1 and 1", m, admitted, guard.Len())
		}
		if m == ModeSlice {
			if err := guard.Check(wire, o.SentAt); err != nil {
				t.Fatalf("%s: the guard holds a digest of the slice: Check = %v", m, err)
			}
			continue
		}
		if err := guard.Check(wire, o.SentAt); !errors.Is(err, ErrMessageReplayed) {
			t.Fatalf("%s: the guard does not hold the digest of the wire as received: Check = %v", m, err)
		}
		if err := guard.Check(frame, o.SentAt); err != nil {
			t.Fatalf("%s: the overwritten buffer's digest was admitted by the open: Check = %v", m, err)
		}
	}
}
