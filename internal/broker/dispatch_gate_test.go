package broker

import (
	"bytes"
	"testing"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/perfgate"
	"jxtaoverlay/internal/proto"
)

// BenchmarkDispatchLookupPipe is a member's read as the broker's endpoint
// hands it over: Dispatch finds the op and the caller's record in one
// read, the handler checks the caller's membership of the group on that
// record and answers the pipe advertisement from the index. What it
// allocates is the answer: its message and its element table.
func BenchmarkDispatchLookupPipe(b *testing.B) {
	br, err := New(Config{Name: "bench", PeerID: keys.LegacyPeerID("bench"), Net: new(countingHop), DB: AuthenticatorFunc(acceptAll)})
	if err != nil {
		b.Fatal(err)
	}
	defer br.Close()
	const reader, owner keys.PeerID = "urn:jxta:reader", "urn:jxta:owner"
	br.RegisterPeer(reader, "reader", []string{"g"})
	br.RegisterPeer(owner, "owner", []string{"g"})
	pipe := &advert.Pipe{PipeID: advert.GroupPipeID(owner, "g"), PipeType: advert.PipeUnicast, PeerID: owner, Group: "g"}
	if err := br.Cache().PutAdv(pipe); err != nil {
		b.Fatal(err)
	}
	rec, err := br.Cache().Lookup(advert.TypePipe, pipe.PipeID)
	if err != nil {
		b.Fatal(err)
	}
	want := rec.Doc.Canonical()
	req := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpLookupPipe).
		AddString(proto.ElemPeer, string(owner)).
		AddString(proto.ElemGroup, "g")
	lookup := func() {
		resp := br.Dispatch(reader, req)
		if got, _ := resp.Get(proto.ElemAdv); !bytes.Equal(got, want) {
			ok, token := proto.IsOK(resp)
			b.Fatalf("lookup answered ok=%v %q without the pipe", ok, token)
		}
	}
	lookup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup()
	}
}

// TestGateDispatchLookupPipe holds a member's read through Dispatch to
// the two allocations of its answer.
func TestGateDispatchLookupPipe(t *testing.T) {
	perfgate.Run(t, BenchmarkDispatchLookupPipe, 2, perfgate.NoLimit)
}
