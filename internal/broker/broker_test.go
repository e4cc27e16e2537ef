package broker

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/xmldoc"
)

func acceptAll(_ context.Context, u, p string) ([]string, error) {
	if p == "bad" {
		return nil, errors.New("denied")
	}
	return []string{"g1"}, nil
}

func newBroker(t *testing.T) (*Broker, *simnet.Network) {
	t.Helper()
	net := simnet.NewNetwork(simnet.ProfileLocal)
	t.Cleanup(net.Close)
	b, err := New(Config{
		Name:   "b1",
		PeerID: keys.LegacyPeerID("b1"),
		Net:    net,
		DB:     AuthenticatorFunc(acceptAll),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b, net
}

// caller is a raw endpoint that speaks broker ops directly.
type caller struct {
	ep *endpoint.Service
	br keys.PeerID
	t  *testing.T
}

func newCaller(t *testing.T, net *simnet.Network, b *Broker, id string) *caller {
	t.Helper()
	ep, err := endpoint.NewService(net, keys.PeerID(id))
	if err != nil {
		t.Fatal(err)
	}
	return &caller{ep: ep, br: b.PeerID(), t: t}
}

func (c *caller) op(op string, kv ...string) *endpoint.Message {
	c.t.Helper()
	msg := endpoint.NewMessage().AddString(proto.ElemOp, op)
	for i := 0; i+1 < len(kv); i += 2 {
		msg.AddString(kv[i], kv[i+1])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := c.ep.Request(ctx, c.br, proto.BrokerService, msg, 0)
	if err != nil {
		c.t.Fatalf("op %s: %v", op, err)
	}
	return resp
}

func (c *caller) login(user string) {
	c.t.Helper()
	resp := c.op(proto.OpLogin, proto.ElemUser, user, proto.ElemPass, "pw")
	if ok, errTok := proto.IsOK(resp); !ok {
		c.t.Fatalf("login failed: %s", errTok)
	}
}

func TestConfigValidation(t *testing.T) {
	net := simnet.NewNetwork(simnet.ProfileLocal)
	defer net.Close()
	bad := []Config{
		{},
		{Name: "x", PeerID: "p", Net: net}, // no DB
		{Name: "x", Net: net, DB: AuthenticatorFunc(acceptAll)},
		{PeerID: "p", Net: net, DB: AuthenticatorFunc(acceptAll)},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestUnknownOp(t *testing.T) {
	b, net := newBroker(t)
	c := newCaller(t, net, b, "urn:jxta:c1")
	resp := c.op("fly-to-the-moon")
	if ok, errTok := proto.IsOK(resp); ok || errTok != proto.ErrUnknownOp {
		t.Fatalf("resp = %v / %s", ok, errTok)
	}
}

func TestLoginAndRegistry(t *testing.T) {
	b, net := newBroker(t)
	c := newCaller(t, net, b, "urn:jxta:c1")
	c.login("alice")
	info, ok := b.Peer("urn:jxta:c1")
	if !ok || info.Username != "alice" || !info.Online {
		t.Fatalf("peer info = %+v, %v", info, ok)
	}
	if len(info.Groups) != 1 || info.Groups[0] != "g1" {
		t.Fatalf("groups = %v", info.Groups)
	}
	if c := callerOf(b, "urn:jxta:c1"); !c.Member("g1") || c.Member("g2") {
		t.Fatal("live membership is not the record's: want g1 alone")
	}
}

// online reports whether id has an online session at b.
func online(b *Broker, id keys.PeerID) bool {
	p, ok := b.Peer(id)
	return ok && p.Online
}

func TestLoginFailure(t *testing.T) {
	b, net := newBroker(t)
	c := newCaller(t, net, b, "urn:jxta:c1")
	resp := c.op(proto.OpLogin, proto.ElemUser, "alice", proto.ElemPass, "bad")
	if ok, errTok := proto.IsOK(resp); ok || errTok != proto.ErrAuthFailed {
		t.Fatalf("resp = %v / %s", ok, errTok)
	}
	if _, ok := b.Peer("urn:jxta:c1"); ok {
		t.Fatal("failed login registered the peer")
	}
	// Empty user is a bad request.
	resp = c.op(proto.OpLogin, proto.ElemPass, "pw")
	if ok, errTok := proto.IsOK(resp); ok || errTok != proto.ErrBadRequest {
		t.Fatalf("resp = %v / %s", ok, errTok)
	}
}

func TestSecureRequiredRejectsPlainLogin(t *testing.T) {
	net := simnet.NewNetwork(simnet.ProfileLocal)
	defer net.Close()
	b, err := New(Config{
		Name: "b1", PeerID: keys.LegacyPeerID("b1"), Net: net,
		DB: AuthenticatorFunc(acceptAll), RequireSecureLogin: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c := newCaller(t, net, b, "urn:jxta:c1")
	resp := c.op(proto.OpLogin, proto.ElemUser, "alice", proto.ElemPass, "pw")
	if ok, errTok := proto.IsOK(resp); ok || errTok != proto.ErrSecureRequired {
		t.Fatalf("resp = %v / %s", ok, errTok)
	}
}

func TestOpsRequireLogin(t *testing.T) {
	b, net := newBroker(t)
	c := newCaller(t, net, b, "urn:jxta:c1")
	for _, op := range []string{
		proto.OpPublishAdv, proto.OpLookupAdv, proto.OpLookupPipe,
		proto.OpListPeers, proto.OpGroupCreate, proto.OpGroupJoin,
		proto.OpGroupLeave, proto.OpGroupList, proto.OpFileSearch,
	} {
		resp := c.op(op)
		if ok, errTok := proto.IsOK(resp); ok || errTok != proto.ErrNotLoggedIn {
			t.Errorf("op %s before login: ok=%v err=%s", op, ok, errTok)
		}
	}
	_ = b
}

func TestLogoutUnregisters(t *testing.T) {
	b, net := newBroker(t)
	c := newCaller(t, net, b, "urn:jxta:c1")
	c.login("alice")
	c.op(proto.OpLogout)
	if info, _ := b.Peer("urn:jxta:c1"); info.Online {
		t.Fatal("peer still online after logout")
	}
	if len(onlineIn(b, "g1")) != 0 {
		t.Fatal("peer still listed after logout")
	}
}

// TestPresenceRecordsAreLocal: a login and a logout are audited peer-up
// and peer-down with reason "local", the reason a broker has written for
// its own sessions since presence records were journaled.
func TestPresenceRecordsAreLocal(t *testing.T) {
	b, net := newBroker(t)
	dir := t.TempDir()
	j, err := audit.Open(audit.Options{Dir: dir, SyncInterval: time.Hour, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	b.SetAuditor(j)
	c := newCaller(t, net, b, "urn:jxta:c1")
	c.login("alice")
	c.op(proto.OpLogout)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	segs, err := filepath.Glob(filepath.Join(dir, "audit-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for len(data) > 0 {
			rec, n, err := audit.DecodeRecord(data)
			if err != nil {
				t.Fatal(err)
			}
			data = data[n:]
			if rec.Kind == audit.KindPeerUp || rec.Kind == audit.KindPeerDown {
				got = append(got, rec.Kind+" "+rec.Peer+" "+rec.Reason)
			}
		}
	}
	want := []string{"peer-up urn:jxta:c1 local", "peer-down urn:jxta:c1 local"}
	if !slices.Equal(got, want) {
		t.Fatalf("presence records %q, want %q", got, want)
	}
}

func TestPublishAdvMembership(t *testing.T) {
	b, net := newBroker(t)
	c := newCaller(t, net, b, "urn:jxta:c1")
	c.login("alice")

	// Publishing into the peer's own group works.
	own := &advert.Presence{PeerID: "urn:jxta:c1", Name: "alice", Group: "g1", Status: advert.StatusOnline, Seen: time.Now()}
	ownDoc, _ := own.Document()
	resp := c.op(proto.OpPublishAdv, proto.ElemAdv, string(ownDoc.Canonical()))
	if ok, errTok := proto.IsOK(resp); !ok {
		t.Fatalf("publish to own group failed: %s", errTok)
	}

	// Publishing into a foreign group is denied.
	foreign := &advert.Presence{PeerID: "urn:jxta:c1", Name: "alice", Group: "other", Status: advert.StatusOnline, Seen: time.Now()}
	fDoc, _ := foreign.Document()
	resp = c.op(proto.OpPublishAdv, proto.ElemAdv, string(fDoc.Canonical()))
	if ok, errTok := proto.IsOK(resp); ok || errTok != proto.ErrNoGroup {
		t.Fatalf("publish to foreign group: ok=%v err=%s", ok, errTok)
	}

	// Garbage documents are rejected.
	resp = c.op(proto.OpPublishAdv, proto.ElemAdv, "<Garbage/>")
	if ok, _ := proto.IsOK(resp); ok {
		t.Fatal("garbage advertisement accepted")
	}
}

func TestAdvVerifierHook(t *testing.T) {
	b, net := newBroker(t)
	b.SetAdvVerifier(func(doc *xmldoc.Element) (advert.Advertisement, error) {
		return nil, errors.New("nothing is trusted")
	})
	c := newCaller(t, net, b, "urn:jxta:c1")
	c.login("alice")
	pres := &advert.Presence{PeerID: "urn:jxta:c1", Name: "alice", Group: "g1", Status: advert.StatusOnline, Seen: time.Now()}
	doc, _ := pres.Document()
	resp := c.op(proto.OpPublishAdv, proto.ElemAdv, string(doc.Canonical()))
	if ok, errTok := proto.IsOK(resp); ok || errTok != proto.ErrUnsignedAdv {
		t.Fatalf("verifier not enforced: ok=%v err=%s", ok, errTok)
	}
}

func TestPublishParsesExactlyOnce(t *testing.T) {
	// The publish path's contract: one advert.Parse per accepted
	// advertisement, whether the parse happens in the acceptance policy
	// (verifier installed) or in the broker (no verifier).
	cases := []struct {
		name     string
		verifier AdvVerifier
	}{
		{"no-verifier", nil},
		{"parsing-verifier", func(doc *xmldoc.Element) (advert.Advertisement, error) {
			return advert.Parse(doc)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, net := newBroker(t)
			if tc.verifier != nil {
				b.SetAdvVerifier(tc.verifier)
			}
			c := newCaller(t, net, b, "urn:jxta:c1")
			c.login("alice")
			pres := &advert.Presence{PeerID: "urn:jxta:c1", Name: "alice", Group: "g1", Status: advert.StatusOnline, Seen: time.Now()}
			doc, _ := pres.Document()
			raw := string(doc.Canonical())
			before := advert.ParseCalls()
			resp := c.op(proto.OpPublishAdv, proto.ElemAdv, raw)
			if ok, errTok := proto.IsOK(resp); !ok {
				t.Fatalf("publish failed: %s", errTok)
			}
			if got := advert.ParseCalls() - before; got != 1 {
				t.Fatalf("publish ran advert.Parse %d times, want exactly 1", got)
			}
		})
	}
}

func TestLookupAdvAndGroupGating(t *testing.T) {
	b, net := newBroker(t)
	c1 := newCaller(t, net, b, "urn:jxta:c1")
	c1.login("alice")
	pres := &advert.Presence{PeerID: "urn:jxta:c1", Name: "alice", Group: "g1", Status: advert.StatusOnline, Seen: time.Now()}
	doc, _ := pres.Document()
	c1.op(proto.OpPublishAdv, proto.ElemAdv, string(doc.Canonical()))

	// A member can look it up.
	resp := c1.op(proto.OpLookupAdv, proto.ElemAdvType, advert.TypePresence, proto.ElemAdvID, pres.AdvID())
	if ok, errTok := proto.IsOK(resp); !ok {
		t.Fatalf("member lookup failed: %s", errTok)
	}
	// Missing records are not-found.
	resp = c1.op(proto.OpLookupAdv, proto.ElemAdvType, advert.TypePresence, proto.ElemAdvID, "nope")
	if ok, errTok := proto.IsOK(resp); ok || errTok != proto.ErrNotFound {
		t.Fatalf("missing lookup: ok=%v err=%s", ok, errTok)
	}
}

// TestPresenceLookupFollowsSession: with no presence published, a lookup
// is answered from the session record, rendered when asked — online, seen
// at the login, for as long as the session lasts (past the lifetime a
// presence advertisement has), and offline, seen at the logout, once it
// has ended.
func TestPresenceLookupFollowsSession(t *testing.T) {
	b, net := newBroker(t)
	start := time.Now().UTC().Truncate(time.Second)
	var ahead atomic.Int64
	b.Endpoint().SetClock(func() time.Time { return start.Add(time.Duration(ahead.Load())) })
	alice := newCaller(t, net, b, "urn:jxta:c1")
	bob := newCaller(t, net, b, "urn:jxta:c2")
	alice.login("alice")
	bob.login("bob")
	id := (&advert.Presence{PeerID: "urn:jxta:c1", Group: "g1"}).AdvID()
	lookup := func(step, status string, seen time.Time) {
		t.Helper()
		resp := bob.op(proto.OpLookupAdv, proto.ElemAdvType, advert.TypePresence, proto.ElemAdvID, id)
		if ok, errTok := proto.IsOK(resp); !ok {
			t.Fatalf("%s: lookup refused %s", step, errTok)
		}
		raw, _ := resp.Get(proto.ElemAdv)
		doc, err := xmldoc.ParseCanonical(raw)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		p, err := advert.ParsePresence(doc)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if p.PeerID != "urn:jxta:c1" || p.Name != "alice" || p.Group != "g1" || p.Status != status || !p.Seen.Equal(seen) {
			t.Fatalf("%s: presence %+v, want %s seen %v", step, p, status, seen)
		}
	}
	lookup("after login", advert.StatusOnline, start)

	ahead.Store(int64(3 * time.Minute))
	if info, ok := b.Peer("urn:jxta:c1"); !ok || !info.Online {
		t.Fatal("the session ended by itself")
	}
	lookup("3 minutes on", advert.StatusOnline, start)

	alice.op(proto.OpLogout)
	lookup("after logout", advert.StatusOffline, start.Add(3*time.Minute))

	// A group the session does not name has no presence of it.
	other := (&advert.Presence{PeerID: "urn:jxta:c1", Group: "g2"}).AdvID()
	resp := bob.op(proto.OpLookupAdv, proto.ElemAdvType, advert.TypePresence, proto.ElemAdvID, other)
	if ok, errTok := proto.IsOK(resp); ok || errTok != proto.ErrNotFound {
		t.Fatalf("lookup in a group the session does not name: ok=%v err=%s", ok, errTok)
	}
}

func TestRegisterOpOverride(t *testing.T) {
	b, net := newBroker(t)
	b.RegisterOp("custom", func(c Caller, msg *endpoint.Message) *endpoint.Message {
		return proto.OK().AddString("echo", string(c.ID))
	})
	c := newCaller(t, net, b, "urn:jxta:c9")
	resp := c.op("custom")
	if v, _ := resp.GetString("echo"); v != "urn:jxta:c9" {
		t.Fatalf("custom op echo = %q", v)
	}
}

func TestGroupOps(t *testing.T) {
	b, net := newBroker(t)
	c := newCaller(t, net, b, "urn:jxta:c1")
	c.login("alice")

	resp := c.op(proto.OpGroupCreate, proto.ElemGroup, "proj", proto.ElemDesc, "project")
	if ok, errTok := proto.IsOK(resp); !ok {
		t.Fatalf("groupCreate: %s", errTok)
	}
	resp = c.op(proto.OpGroupCreate, proto.ElemGroup, "proj")
	if ok, errTok := proto.IsOK(resp); ok || errTok != proto.ErrGroupExists {
		t.Fatalf("duplicate create: ok=%v err=%s", ok, errTok)
	}
	resp = c.op(proto.OpGroupJoin, proto.ElemGroup, "proj")
	if ok, _ := proto.IsOK(resp); !ok {
		t.Fatal("groupJoin failed")
	}
	if info, _ := b.Peer("urn:jxta:c1"); len(info.Groups) != 2 {
		t.Fatalf("peer groups = %v", info.Groups)
	}
	resp = c.op(proto.OpGroupLeave, proto.ElemGroup, "proj")
	if ok, _ := proto.IsOK(resp); !ok {
		t.Fatal("groupLeave failed")
	}
	resp = c.op(proto.OpGroupLeave, proto.ElemGroup, "proj")
	if ok, _ := proto.IsOK(resp); ok {
		t.Fatal("second groupLeave succeeded")
	}
	resp = c.op(proto.OpGroupList)
	if groups, _ := resp.GetString(proto.ElemGroups); groups == "" {
		t.Fatal("groupList empty")
	}
}

func TestOnlinePeersFilters(t *testing.T) {
	b, net := newBroker(t)
	c1 := newCaller(t, net, b, "urn:jxta:c1")
	c2 := newCaller(t, net, b, "urn:jxta:c2")
	c1.login("alice")
	c2.login("bob")
	if got := len(onlineIn(b, "")); got != 2 {
		t.Fatalf("all online = %d", got)
	}
	if got := len(onlineIn(b, "g1")); got != 2 {
		t.Fatalf("g1 online = %d", got)
	}
	if got := len(onlineIn(b, "missing")); got != 0 {
		t.Fatalf("missing group online = %d", got)
	}
	mustOK(t, c2.op(proto.OpLogout))
	if got := len(onlineIn(b, "g1")); got != 1 {
		t.Fatalf("after a logout = %d", got)
	}
}

// TestAccessors: a broker hands out its parts, and its node ID is its peer ID.
func TestAccessors(t *testing.T) {
	b, _ := newBroker(t)
	if b.DB() == nil || b.Cache() == nil || b.Bus() == nil || b.Endpoint() == nil {
		t.Fatal("accessors returned nil")
	}
	if b.NodeID() != simnet.NodeID(b.PeerID()) {
		t.Fatal("NodeID mismatch")
	}
}
