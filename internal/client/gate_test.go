package client

import (
	"fmt"
	"testing"

	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/perfgate"
	"jxtaoverlay/internal/proto"
)

// BenchmarkParsePeerList is a sender reading a 17-row group roster, the
// GetGroupMembers answer a relayed round to 16 members starts from, in
// reverse ID order so that the sort has work. What it allocates is one
// string of the roster, whose rows are views, and the slice of rows.
func BenchmarkParsePeerList(b *testing.B) {
	const rows = 17
	var raw []byte
	for i := rows - 1; i >= 0; i-- {
		raw = proto.AppendRosterLine(raw, fmt.Sprintf("urn:jxta:cbid-%040d", i), fmt.Sprintf("user%02d", i), "online")
	}
	resp := endpoint.NewMessage().Add(proto.ElemPeers, raw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := parsePeerList(resp); len(got) != rows || got[0].Username != "user00" {
			b.Fatalf("parsed %d rows, the first %+v", len(got), got[0])
		}
	}
}

func TestGateParsePeerList(t *testing.T) {
	perfgate.Run(t, BenchmarkParsePeerList, 2, perfgate.NoLimit)
}
