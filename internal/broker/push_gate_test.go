package broker

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/perfgate"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
)

// countingHop is the transport of a broker benchmarked alone: it keeps
// nothing and delivers nothing, and counts the packets it is handed and
// the distinct buffers among them.
type countingHop struct {
	sent, buffers int
	last          *byte
}

func (h *countingHop) Attach(simnet.NodeID, simnet.Handler) error { return nil }
func (h *countingHop) Detach(simnet.NodeID)                       {}
func (h *countingHop) Attached(simnet.NodeID) bool                { return true }
func (h *countingHop) Send(_, _ simnet.NodeID, frame []byte) error {
	h.sent++
	if &frame[0] != h.last {
		h.buffers++
		h.last = &frame[0]
	}
	return nil
}

// benchPushBurst is one push — a re-join's refresh — to the other
// members of a group of members+1 local, online peers.
func benchPushBurst(b *testing.B, members int) {
	hop := new(countingHop)
	br, err := New(Config{Name: "bench", PeerID: keys.LegacyPeerID("bench"), Net: hop, DB: AuthenticatorFunc(acceptAll)})
	if err != nil {
		b.Fatal(err)
	}
	defer br.Close()
	for i := 0; i <= members; i++ {
		br.RegisterPeer(keys.PeerID(fmt.Sprintf("urn:jxta:member-%02d", i)), fmt.Sprintf("member%d", i), []string{"g"})
	}
	sum := sha256.Sum256([]byte("advertisement"))
	push := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpAdvRefresh).
		AddString(proto.ElemAdvID, "urn:jxta:pipe-00").
		Add(proto.ElemAdvSum, sum[:])
	sent, buffers := hop.sent, hop.buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.pushLocal(push, "g", "urn:jxta:member-00")
	}
	b.StopTimer()
	if got := hop.sent - sent; got != b.N*members {
		b.Fatalf("%d packets for %d bursts to %d members", got, b.N, members)
	}
	if got := hop.buffers - buffers; got != b.N {
		b.Fatalf("%d buffers for %d bursts, want one a burst", got, b.N)
	}
}

func BenchmarkPushBurst2(b *testing.B)  { benchPushBurst(b, 2) }
func BenchmarkPushBurst16(b *testing.B) { benchPushBurst(b, 16) }

// TestGatePushBurst holds a push to a group's residents to one frame
// however many they are: a burst allocates the same at 2 members as at
// 16.
func TestGatePushBurst(t *testing.T) {
	two := perfgate.Run(t, BenchmarkPushBurst2, 1, 20000)
	sixteen := perfgate.Run(t, BenchmarkPushBurst16, 1, 20000)
	if a, b := two.AllocsPerOp(), sixteen.AllocsPerOp(); a != b {
		t.Fatalf("a push burst allocates %d times at 2 members, %d at 16", a, b)
	}
	if a, b := two.AllocedBytesPerOp(), sixteen.AllocedBytesPerOp(); a != b {
		t.Fatalf("a push burst allocates %d B at 2 members, %d B at 16", a, b)
	}
}
