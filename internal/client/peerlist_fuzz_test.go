package client

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/proto"
)

// FuzzParsePeerList feeds the roster decoder every ElemPeers a broker —
// or anyone answering in its name — could send. Every row it accepts is a
// line of the input that the broker's encoder (proto.AppendRosterLine)
// writes back byte for byte, so a reader and the writer agree on where a
// field ends; and the rows the encoder writes parse back to the same
// rows.
func FuzzParsePeerList(f *testing.F) {
	for _, seed := range []string{
		"",
		"urn:jxta:cbid-a|alice|online",
		"urn:jxta:cbid-a|alice|online\nurn:jxta:cbid-b|bob|offline",
		"urn:jxta:cbid-b|bob|offline\n\nurn:jxta:cbid-a|alice|online\n",
		"urn:jxta:cbid-a|eve|online|extra",
		"urn:jxta:cbid-a|eve\nurn:jxta:cbid-forged|admin|online",
		"no separators",
		"|||",
		"a|b",
		"a|b|c\r",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		rows := parsePeerList(endpoint.NewMessage().AddString(proto.ElemPeers, raw))
		lines := strings.Split(raw, "\n")
		var roster []byte
		for _, r := range rows {
			line := proto.AppendRosterLine(nil, string(r.ID), r.Username, r.Status)
			if !slices.Contains(lines, string(line)) {
				t.Fatalf("row %+v re-encodes as %q, which is no line of %q", r, line, raw)
			}
			roster = proto.AppendRosterLine(roster, string(r.ID), r.Username, r.Status)
		}
		// Rows of one ID may come back in either order: compare as sets.
		again := parsePeerList(endpoint.NewMessage().Add(proto.ElemPeers, roster))
		byAll := func(a, b PeerSummary) int {
			return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.Username, b.Username), cmp.Compare(a.Status, b.Status))
		}
		slices.SortFunc(rows, byAll)
		slices.SortFunc(again, byAll)
		if !slices.Equal(again, rows) {
			t.Fatalf("the encoder's roster %q parses as %+v, want %+v", roster, again, rows)
		}
	})
}
