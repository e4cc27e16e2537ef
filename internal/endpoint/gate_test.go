package endpoint

import (
	"bytes"
	"testing"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/perfgate"
	"jxtaoverlay/internal/simnet"
)

// BenchmarkSendDeliver is one 64 B message through the endpoint alone:
// Service.Send builds the frame, the fabric hands that buffer to a
// delivery goroutine parked after the previous message, and deliver
// reads the prefix where it lies and hands the parsed elements to a
// handler that does nothing with them. What it allocates is the frame
// and the Message with its elements behind it: no goroutine is started,
// nothing is copied, and the sender's ID is interned.
func BenchmarkSendDeliver(b *testing.B) {
	n := simnet.NewNetwork(simnet.ProfileLocal)
	defer n.Close()
	a, err := NewService(n, "urn:jxta:cbid-sender")
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewService(n, "urn:jxta:cbid-recipient")
	if err != nil {
		b.Fatal(err)
	}
	got := make(chan struct{}, 1)
	r.RegisterHandler("jxta:pipe:p", func(keys.PeerID, *Message) *Message {
		got <- struct{}{}
		return nil
	})
	elems := []Element{{"sec:env", bytes.Repeat([]byte{0xA5}, 64)}, {"group", []byte("bench")}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.SendElements(r.PeerID(), "jxta:pipe:", "p", nil, elems...); err != nil {
			b.Fatal(err)
		}
		<-got
	}
}

func TestGateSendDeliver(t *testing.T) { perfgate.Run(t, BenchmarkSendDeliver, 2, 20000) }
