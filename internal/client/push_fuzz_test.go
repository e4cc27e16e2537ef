package client

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/xmldoc"
)

// nowhere is a transport that attaches anything and delivers nothing.
type nowhere struct{}

func (nowhere) Attach(simnet.NodeID, simnet.Handler) error { return nil }
func (nowhere) Detach(simnet.NodeID)                       {}
func (nowhere) Attached(simnet.NodeID) bool                { return true }
func (nowhere) Send(_, _ simnet.NodeID, _ []byte) error    { return nil }

// pushFixture is what a resident's cache holds when a push arrives: a
// pipe advertisement pushed to it (held with its digest), one it put in
// parsed form, and a pushed presence advertisement.
var pushFixture = func() (out struct{ held, parsed, presence, other []byte }) {
	wire := func(a advert.Advertisement) []byte {
		doc, err := a.Document()
		if err != nil {
			panic(err)
		}
		return bytes.Clone(doc.Canonical())
	}
	pipe := func(peer keys.PeerID, name string) *advert.Pipe {
		return &advert.Pipe{PipeID: advert.GroupPipeID(peer, "math"), PipeType: advert.PipeUnicast, Name: name, PeerID: peer, Group: "math"}
	}
	out.held = wire(pipe("urn:jxta:cbid-owner", ""))
	out.other = wire(pipe("urn:jxta:cbid-owner", "replaced"))
	out.parsed = wire(pipe("urn:jxta:cbid-local", ""))
	out.presence = wire(&advert.Presence{PeerID: "urn:jxta:cbid-owner", Name: "owner", Group: "math", Status: advert.StatusOnline, Seen: time.Unix(1_700_000_000, 0).UTC()})
	return out
}()

// Which elements a push carries, one bit each.
const (
	withAdvID = 1 << iota
	withAdvSum
	withAdv
	withPeer
	withGroup
	withUser
	withStatus
	withEnvelope
	withSlices
)

// FuzzBrokerPush feeds the client's push handler — what anyone who
// reaches a client's overlay:client service can send it — pushes of any
// op and any elements, at a resident whose cache holds a pushed pipe
// advertisement, one it put in parsed form and a pushed presence. It
// must not panic; a refresh never adds a record or changes the bytes of
// one (it may drop one); and afterwards the cache's digest index holds
// exactly its pushed records.
func FuzzBrokerPush(f *testing.F) {
	fx := pushFixture
	heldID := advert.GroupPipeID("urn:jxta:cbid-owner", "math")
	parsedID := advert.GroupPipeID("urn:jxta:cbid-local", "math")
	sum := func(b []byte) []byte { s := sha256.Sum256(b); return s[:] }
	refresh := uint16(withAdvID | withAdvSum)
	for _, frame := range pushVectorFrames(f) {
		// The relay's slice pushes, as the broker frames them.
		op, _ := frame.Msg.GetString(proto.ElemOp)
		section, _ := frame.Msg.Get(proto.ElemSlices)
		f.Add(op, uint16(withSlices), []byte(nil), []byte(nil), []byte(nil), "", "", "", "", []byte(nil), section)
	}
	for _, seed := range []struct {
		op                        string
		mask                      uint16
		id, digest, adv           []byte
		peer, group, user, status string
		env, slices               []byte
	}{
		{op: proto.OpAdvRefresh, mask: refresh, id: []byte(heldID), digest: sum(fx.held)},
		{op: proto.OpAdvRefresh, mask: refresh, id: []byte(heldID), digest: sum(fx.other)},
		{op: proto.OpAdvRefresh, mask: refresh, id: []byte(parsedID), digest: sum(fx.parsed)},
		{op: proto.OpAdvRefresh, mask: refresh, id: []byte(heldID), digest: sum(fx.held)[:31]},
		{op: proto.OpAdvRefresh, mask: withAdvSum, digest: sum(fx.held)},
		{op: proto.OpAdvRefresh, mask: refresh, id: []byte("urn:jxta:pipe-nobody"), digest: sum(fx.held)},
		{op: proto.OpAdvPush, mask: withAdv, adv: fx.held},
		{op: proto.OpAdvPush, mask: withAdv, adv: fx.other},
		{op: proto.OpAdvPush, mask: withAdv, adv: fx.presence},
		{op: proto.OpAdvPush, mask: withAdv, adv: []byte("<PipeAdvertisement/>")},
		{op: proto.OpPresencePush, mask: withPeer | withGroup | withUser | withStatus, peer: "urn:jxta:cbid-owner", group: "math", user: "owner", status: advert.StatusOnline},
		{op: proto.OpSliceDeliver, mask: withGroup | withPeer | withEnvelope, peer: "urn:jxta:cbid-owner", group: "math", env: []byte{0x05, 0x00, 0x01}},
		{op: proto.OpSliceDeliver, mask: withSlices, slices: []byte{0x00, 0x04, 'm', 'a', 't', 'h', 0x00, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0x00, 0x00, 0x00, 0x03, 0x05, 0x00, 0x01}},
	} {
		f.Add(seed.op, seed.mask, seed.id, seed.digest, seed.adv, seed.peer, seed.group, seed.user, seed.status, seed.env, seed.slices)
	}
	f.Fuzz(func(t *testing.T, op string, mask uint16, id, digest, adv []byte, peer, group, user, status string, env, slices []byte) {
		c, err := New(nowhere{}, membership.NewNone(), "resident")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		now := time.Unix(1_700_000_000, 0)
		c.ep.SetClock(func() time.Time { return now })
		cache := c.Cache()
		for _, raw := range [][]byte{fx.held, fx.presence} {
			if _, err := cache.PutCanonical(raw); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cache.Put(mustParse(t, fx.parsed)); err != nil {
			t.Fatal(err)
		}
		before := cacheBytes(c)

		msg := endpoint.NewMessage().AddString(proto.ElemOp, op)
		for _, e := range []struct {
			bit  uint16
			name string
			data []byte
		}{
			{withAdvID, proto.ElemAdvID, id},
			{withAdvSum, proto.ElemAdvSum, digest},
			{withAdv, proto.ElemAdv, adv},
			{withPeer, proto.ElemPeer, []byte(peer)},
			{withGroup, proto.ElemGroup, []byte(group)},
			{withUser, proto.ElemUser, []byte(user)},
			{withStatus, proto.ElemStatus, []byte(status)},
			{withEnvelope, proto.ElemEnvelope, env},
			{withSlices, proto.ElemSlices, slices},
		} {
			if mask&e.bit != 0 {
				msg.Add(e.name, e.data)
			}
		}
		if resp := c.onBrokerPush("urn:jxta:cbid-anyone", msg); resp != nil {
			t.Fatal("a push was answered")
		}

		if op == proto.OpAdvRefresh {
			for key, wire := range cacheBytes(c) {
				if was, ok := before[key]; !ok || !bytes.Equal(was, wire) {
					t.Fatalf("a refresh added or changed the record %q", key)
				}
			}
		}
		if err := cache.CheckIndex(); err != nil {
			t.Fatal(err)
		}
	})
}

// pushVectorFrames parses the broker's slice pushes that core's
// testdata/vectors/push.json pins.
func pushVectorFrames(tb testing.TB) []endpoint.Frame {
	tb.Helper()
	raw, err := os.ReadFile("../core/testdata/vectors/push.json")
	if err != nil {
		tb.Fatal(err)
	}
	var vs []struct{ Hex string }
	if err := json.Unmarshal(raw, &vs); err != nil {
		tb.Fatal(err)
	}
	frames := make([]endpoint.Frame, len(vs))
	for i, v := range vs {
		b, err := hex.DecodeString(v.Hex)
		if err != nil {
			tb.Fatal(err)
		}
		if frames[i], err = endpoint.ParseFrame(b); err != nil {
			tb.Fatal(err)
		}
	}
	return frames
}

// cacheBytes is every record c's cache holds, by type and ID, as its
// canonical bytes.
func cacheBytes(c *Client) map[string][]byte {
	out := map[string][]byte{}
	for _, typ := range []string{advert.TypePeer, advert.TypePipe, advert.TypePresence, advert.TypeFileList, advert.TypeStats, advert.TypeGroup} {
		for _, rec := range c.Cache().Find(typ, nil) {
			out[typ+" "+rec.Adv.AdvID()] = rec.Doc.Canonical()
		}
	}
	return out
}

func mustParse(t *testing.T, raw []byte) *xmldoc.Element {
	t.Helper()
	doc, err := xmldoc.ParseCanonical(bytes.Clone(raw))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}
