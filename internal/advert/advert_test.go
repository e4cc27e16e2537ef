package advert

import (
	"strings"
	"testing"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/xmldoc"
)

func roundTrip(t *testing.T, adv Advertisement) Advertisement {
	t.Helper()
	doc, err := adv.Document()
	if err != nil {
		t.Fatalf("Document: %v", err)
	}
	// Cross the wire: canonical bytes → parse → dispatch.
	back, err := xmldoc.ParseBytes(doc.Canonical())
	if err != nil {
		t.Fatalf("ParseBytes: %v", err)
	}
	out, err := Parse(back)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if out.AdvType() != adv.AdvType() || out.AdvID() != adv.AdvID() {
		t.Fatalf("round trip identity mismatch: %s/%s vs %s/%s",
			out.AdvType(), out.AdvID(), adv.AdvType(), adv.AdvID())
	}
	return out
}

func TestPeerRoundTrip(t *testing.T) {
	p := &Peer{
		PeerID:   "urn:jxta:cbid-0001",
		Name:     "alice",
		Desc:     "e-learning client",
		Services: []string{"msg", "file", "task"},
	}
	out := roundTrip(t, p).(*Peer)
	if out.Name != "alice" || len(out.Services) != 3 || out.Services[2] != "task" {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestPipeRoundTrip(t *testing.T) {
	p := &Pipe{
		PipeID:   "urn:jxta:pipe-77",
		PipeType: PipeUnicast,
		Name:     "msg/alice",
		PeerID:   "urn:jxta:cbid-0001",
		Group:    "classroom-1",
	}
	out := roundTrip(t, p).(*Pipe)
	if out.Group != "classroom-1" || out.PipeType != PipeUnicast {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestPipeRejectsUnknownType(t *testing.T) {
	// A propagate pipe is JXTA's, not this overlay's: every pipe is a peer's
	// unicast group pipe.
	for _, typ := range []string{"JxtaCarrierPigeon", "JxtaPropagate"} {
		doc := xmldoc.New(TypePipe, "")
		doc.AddText("Id", "urn:jxta:pipe-1")
		doc.AddText("Type", typ)
		doc.AddText("PeerID", "urn:jxta:cbid-1")
		if _, err := ParsePipe(doc); err == nil {
			t.Fatalf("ParsePipe accepted pipe type %q", typ)
		}
	}
}

func TestPresenceRoundTrip(t *testing.T) {
	p := &Presence{
		PeerID: "urn:jxta:cbid-0002",
		Name:   "bob",
		Group:  "lab",
		Status: StatusOnline,
		Seen:   time.Now().UTC().Truncate(time.Second),
	}
	out := roundTrip(t, p).(*Presence)
	if !out.Seen.Equal(p.Seen) || out.Status != StatusOnline {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestFileListRoundTrip(t *testing.T) {
	f := &FileList{
		PeerID: "urn:jxta:cbid-0003",
		Group:  "lab",
		Files: []FileEntry{
			{Name: "lecture.pdf", Size: 1 << 20, Digest: "aa11"},
			{Name: "notes.txt", Size: 42, Digest: "bb22"},
		},
	}
	out := roundTrip(t, f).(*FileList)
	if len(out.Files) != 2 || out.Files[0].Size != 1<<20 || out.Files[1].Name != "notes.txt" {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	s := &Stats{
		PeerID: "urn:jxta:cbid-0004", Group: "lab",
		MsgsSent: 10, MsgsRecv: 20, BytesSent: 1000, BytesRecv: 2000, UptimeSec: 3600,
	}
	out := roundTrip(t, s).(*Stats)
	if out.MsgsRecv != 20 || out.UptimeSec != 3600 {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestGroupRoundTrip(t *testing.T) {
	g := &Group{GroupID: "urn:jxta:group-9", Name: "lab", Desc: "lab group", Creator: "urn:jxta:cbid-1"}
	out := roundTrip(t, g).(*Group)
	if out.Name != "lab" || out.Creator != "urn:jxta:cbid-1" {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestParseDispatchUnknown(t *testing.T) {
	if _, err := Parse(xmldoc.New("MysteryAdvertisement", "")); err == nil {
		t.Fatal("Parse accepted unknown type")
	}
	if _, err := Parse(nil); err == nil {
		t.Fatal("Parse(nil) succeeded")
	}
}

func TestMissingMandatoryFields(t *testing.T) {
	cases := []Advertisement{
		&Peer{},
		&Pipe{PipeType: PipeUnicast},
		&Presence{},
		&FileList{},
		&Stats{},
		&Group{},
	}
	for _, adv := range cases {
		if _, err := adv.Document(); err == nil {
			t.Errorf("%s.Document() with empty fields succeeded", adv.AdvType())
		}
	}
	parseCases := map[string]*xmldoc.Element{
		TypePeer:     xmldoc.New(TypePeer, ""),
		TypePipe:     xmldoc.New(TypePipe, ""),
		TypePresence: xmldoc.New(TypePresence, ""),
		TypeFileList: xmldoc.New(TypeFileList, ""),
		TypeStats:    xmldoc.New(TypeStats, ""),
		TypeGroup:    xmldoc.New(TypeGroup, ""),
	}
	for name, doc := range parseCases {
		if _, err := Parse(doc); err == nil {
			t.Errorf("Parse(empty %s) succeeded", name)
		}
	}
}

func TestParseToleratesForeignChildren(t *testing.T) {
	// A signed advertisement carries a Signature child; parsers must not
	// choke on it.
	p := &Pipe{PipeID: "urn:jxta:pipe-1", PipeType: PipeUnicast, PeerID: "urn:jxta:cbid-1"}
	doc, err := p.Document()
	if err != nil {
		t.Fatal(err)
	}
	doc.Add(xmldoc.New("Signature", "opaque"))
	out, err := ParsePipe(doc)
	if err != nil {
		t.Fatalf("ParsePipe with Signature child: %v", err)
	}
	if out.PipeID != p.PipeID {
		t.Fatal("payload fields corrupted by foreign child")
	}
}

func TestNewID(t *testing.T) {
	a, err := NewID("group")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewID("group")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("NewID returned duplicate")
	}
	if !strings.HasPrefix(a, "urn:jxta:group-") {
		t.Fatalf("NewID format: %q", a)
	}
}

func TestGroupPipeID(t *testing.T) {
	peer := keys.PeerID("urn:jxta:cbid-0123456789abcdef0123456789abcdef")
	id := GroupPipeID(peer, "math")
	if id != GroupPipeID(peer, "math") {
		t.Fatal("GroupPipeID is not a function of (peer, group)")
	}
	// The shape of the ID a session used to mint at random (prefix and
	// 32 hex digits), so no signed document or frame that carries one
	// changes size.
	if !strings.HasPrefix(id, "urn:jxta:pipe-") || len(id) != len("urn:jxta:pipe-")+32 {
		t.Fatalf("GroupPipeID = %q, want urn:jxta:pipe-<32 hex digits>", id)
	}
	for _, other := range []string{
		GroupPipeID(peer, "art"),
		GroupPipeID(peer+"0", "math"),
		GroupPipeID("urn:jxta:cbid-0", "0math"), // the pair is framed, not concatenated
		GroupPipeID("urn:jxta:cbid-00", "math"),
	} {
		if other == id {
			t.Fatalf("distinct (peer, group) pairs share the ID %q", id)
		}
	}
	if GroupPipeID("ab", "c") == GroupPipeID("a", "bc") {
		t.Fatal("peer/group boundary not part of the derivation")
	}
}

func TestAdvIDIncludesGroupWhereNeeded(t *testing.T) {
	// Per-group advertisements must not collide across groups.
	a := &Presence{PeerID: "p", Group: "g1", Status: StatusOnline, Seen: time.Now()}
	b := &Presence{PeerID: "p", Group: "g2", Status: StatusOnline, Seen: time.Now()}
	if a.AdvID() == b.AdvID() {
		t.Fatal("presence AdvID collides across groups")
	}
	fa := &FileList{PeerID: "p", Group: "g1"}
	fb := &FileList{PeerID: "p", Group: "g2"}
	if fa.AdvID() == fb.AdvID() {
		t.Fatal("file list AdvID collides across groups")
	}
}

func TestLifetimesPositive(t *testing.T) {
	advs := []Advertisement{
		&Peer{PeerID: "p"}, &Pipe{}, &Presence{}, &FileList{}, &Stats{}, &Group{},
	}
	for _, a := range advs {
		if a.Lifetime() <= 0 {
			t.Errorf("%s lifetime = %v", a.AdvType(), a.Lifetime())
		}
	}
}

func TestStatsRejectsMalformedCounter(t *testing.T) {
	s := &Stats{PeerID: "p", Group: "g"}
	doc, _ := s.Document()
	doc.Child("MsgsSent").Text = "many"
	if _, err := ParseStats(doc); err == nil {
		t.Fatal("ParseStats accepted non-numeric counter")
	}
}

func TestFileListRejectsMalformedSize(t *testing.T) {
	f := &FileList{PeerID: "p", Files: []FileEntry{{Name: "x", Size: 1}}}
	doc, _ := f.Document()
	doc.Child("File").Child("Size").Text = "big"
	if _, err := ParseFileList(doc); err == nil {
		t.Fatal("ParseFileList accepted non-numeric size")
	}
}

// TestPipeNameWrittenOnlyWhenSet: an empty Name is not written, and a
// document that carries one — an older publisher's — still parses.
func TestPipeNameWrittenOnlyWhenSet(t *testing.T) {
	p := &Pipe{PipeID: "urn:jxta:pipe-1", PipeType: PipeUnicast, PeerID: "urn:jxta:peer-1", Group: "math"}
	doc, err := p.Document()
	if err != nil {
		t.Fatal(err)
	}
	if doc.Child("Name") != nil {
		t.Fatalf("empty Name written: %s", doc.Canonical())
	}
	named := *p
	named.Name = "msg/math/urn:jxta:peer-1"
	if doc, err = named.Document(); err != nil {
		t.Fatal(err)
	}
	back, err := ParsePipe(doc)
	if err != nil || *back != named {
		t.Fatalf("named pipe advertisement parsed to (%+v, %v), want %+v", back, err, named)
	}
}
