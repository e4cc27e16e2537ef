package client_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
	"jxtaoverlay/internal/waituntil"
)

// harness assembles one broker, a local user database and n clients on a
// zero-latency network.
type harness struct {
	t   *testing.T
	net *simnet.Network
	br  *broker.Broker
	db  *userdb.Store
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	net := simnet.NewNetwork(simnet.ProfileLocal)
	t.Cleanup(net.Close)
	db := userdb.NewStoreIter(4)
	db.Register("alice", "pw-alice", "math")
	db.Register("bob", "pw-bob", "math")
	db.Register("carol", "pw-carol", "art")
	br, err := broker.New(broker.Config{
		Name:   "broker-1",
		PeerID: keys.LegacyPeerID("broker-1"),
		Net:    net,
		DB:     broker.LocalDB(db),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(br.Close)
	return &harness{t: t, net: net, br: br, db: db}
}

func (h *harness) client(alias string) *client.Client {
	h.t.Helper()
	cl, err := client.New(h.net, membership.NewNone(), alias)
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(cl.Close)
	return cl
}

func (h *harness) login(cl *client.Client, password string) {
	h.t.Helper()
	ctx := testCtx(h.t)
	if err := cl.Connect(ctx, h.br.PeerID()); err != nil {
		h.t.Fatalf("Connect: %v", err)
	}
	if err := cl.Login(ctx, password); err != nil {
		h.t.Fatalf("Login: %v", err)
	}
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestConnectLogin(t *testing.T) {
	h := newHarness(t)
	cl := h.client("alice")
	col := events.NewCollector(cl.Bus())
	h.login(cl, "pw-alice")
	if !cl.LoggedIn() {
		t.Fatal("not logged in")
	}
	if got := cl.Groups(); len(got) != 1 || got[0] != "math" {
		t.Fatalf("groups = %v", got)
	}
	if _, ok := col.WaitFor(events.Connected, 5*time.Second); !ok {
		t.Fatal("no Connected event")
	}
	if _, ok := col.WaitFor(events.LoginOK, 5*time.Second); !ok {
		t.Fatal("no LoginOK event")
	}
}

func TestLoginWrongPassword(t *testing.T) {
	h := newHarness(t)
	cl := h.client("alice")
	ctx := testCtx(t)
	if err := cl.Connect(ctx, h.br.PeerID()); err != nil {
		t.Fatal(err)
	}
	col := events.NewCollector(cl.Bus())
	if err := cl.Login(ctx, "wrong"); err == nil {
		t.Fatal("Login with wrong password succeeded")
	}
	if cl.LoggedIn() {
		t.Fatal("client believes it is logged in")
	}
	if _, ok := col.WaitFor(events.LoginFailed, 5*time.Second); !ok {
		t.Fatal("no LoginFailed event")
	}
}

func TestOpsRequireLogin(t *testing.T) {
	h := newHarness(t)
	cl := h.client("alice")
	ctx := testCtx(t)
	if err := cl.Connect(ctx, h.br.PeerID()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetOnlinePeers(ctx, "math"); err == nil {
		t.Fatal("listPeers succeeded before login")
	}
	if err := cl.CreateGroup(ctx, "g", ""); err == nil {
		t.Fatal("groupCreate succeeded before login")
	}
}

func TestSendMsgPeer(t *testing.T) {
	h := newHarness(t)
	alice := h.client("alice")
	bob := h.client("bob")
	h.login(alice, "pw-alice")
	h.login(bob, "pw-bob")
	bobEvents := events.NewCollector(bob.Bus())

	ctx := testCtx(t)
	if err := alice.SendMsgPeer(ctx, bob.PeerID(), "math", "hello bob"); err != nil {
		t.Fatalf("SendMsgPeer: %v", err)
	}
	e, ok := bobEvents.WaitFor(events.MessageReceived, 5*time.Second)
	if !ok {
		t.Fatal("bob never received the message")
	}
	if string(e.Data) != "hello bob" || e.From != alice.PeerID() || e.Group != "math" {
		t.Fatalf("event = %+v", e)
	}
	// The original primitive carries no authentication.
	if e.Attr("authenticated") != "false" {
		t.Fatal("plain message claims authentication")
	}
}

func TestSendMsgPeerGroup(t *testing.T) {
	h := newHarness(t)
	alice := h.client("alice")
	bob := h.client("bob")
	h.login(alice, "pw-alice")
	h.login(bob, "pw-bob")
	bobEvents := events.NewCollector(bob.Bus())

	ctx := testCtx(t)
	sent, err := alice.SendMsgPeerGroup(ctx, "math", "hi all")
	if err != nil {
		t.Fatalf("SendMsgPeerGroup: %v", err)
	}
	if sent != 1 {
		t.Fatalf("sent = %d, want 1 (bob only, never self)", sent)
	}
	if _, ok := bobEvents.WaitFor(events.MessageReceived, 5*time.Second); !ok {
		t.Fatal("bob missed the group message")
	}
}

func TestGroupIsolation(t *testing.T) {
	h := newHarness(t)
	alice := h.client("alice") // math
	carol := h.client("carol") // art
	h.login(alice, "pw-alice")
	h.login(carol, "pw-carol")
	ctx := testCtx(t)
	// carol is not in math: no pipe advertisement exists for her there.
	if err := alice.SendMsgPeer(ctx, carol.PeerID(), "math", "x"); err == nil {
		t.Fatal("message crossed group boundary")
	}
}

func TestGetOnlinePeers(t *testing.T) {
	h := newHarness(t)
	alice := h.client("alice")
	bob := h.client("bob")
	h.login(alice, "pw-alice")
	h.login(bob, "pw-bob")
	ctx := testCtx(t)
	peers, err := alice.GetOnlinePeers(ctx, "math")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 {
		t.Fatalf("online peers = %v", peers)
	}
	names := []string{peers[0].Username, peers[1].Username}
	if !(contains(names, "alice") && contains(names, "bob")) {
		t.Fatalf("names = %v", names)
	}
}

func TestLogoutRemovesPresence(t *testing.T) {
	h := newHarness(t)
	alice := h.client("alice")
	bob := h.client("bob")
	h.login(alice, "pw-alice")
	h.login(bob, "pw-bob")
	ctx := testCtx(t)
	if err := bob.Logout(ctx); err != nil {
		t.Fatalf("Logout: %v", err)
	}
	peers, err := alice.GetOnlinePeers(ctx, "math")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 1 || peers[0].Username != "alice" {
		t.Fatalf("after logout peers = %v", peers)
	}
}

func TestGroupLifecycle(t *testing.T) {
	h := newHarness(t)
	alice := h.client("alice")
	bob := h.client("bob")
	h.login(alice, "pw-alice")
	h.login(bob, "pw-bob")
	ctx := testCtx(t)

	if err := alice.CreateGroup(ctx, "project-x", "joint project"); err != nil {
		t.Fatalf("CreateGroup: %v", err)
	}
	if err := alice.CreateGroup(ctx, "project-x", ""); err == nil {
		t.Fatal("duplicate CreateGroup succeeded")
	}
	if err := alice.JoinGroup(ctx, "project-x"); err != nil {
		t.Fatalf("JoinGroup: %v", err)
	}
	if err := bob.JoinGroup(ctx, "project-x"); err != nil {
		t.Fatalf("JoinGroup: %v", err)
	}
	if err := bob.JoinGroup(ctx, "missing"); err == nil {
		t.Fatal("JoinGroup to missing group succeeded")
	}

	groups, err := alice.ListGroups(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !contains(groups, "project-x") || !contains(groups, "math") {
		t.Fatalf("groups = %v", groups)
	}

	// Messaging works inside the new group.
	bobEvents := events.NewCollector(bob.Bus())
	if err := alice.SendMsgPeer(ctx, bob.PeerID(), "project-x", "kickoff"); err != nil {
		t.Fatalf("SendMsgPeer in new group: %v", err)
	}
	if _, ok := bobEvents.WaitFor(events.MessageReceived, 5*time.Second); !ok {
		t.Fatal("message in created group not delivered")
	}

	if err := bob.LeaveGroup(ctx, "project-x"); err != nil {
		t.Fatalf("LeaveGroup: %v", err)
	}
	if contains(bob.Groups(), "project-x") {
		t.Fatal("bob still lists project-x")
	}
}

func TestPresencePropagation(t *testing.T) {
	h := newHarness(t)
	alice := h.client("alice")
	h.login(alice, "pw-alice")
	aliceEvents := events.NewCollector(alice.Bus())

	bob := h.client("bob")
	h.login(bob, "pw-bob")

	// Alice is told that bob came online in math.
	e, ok := aliceEvents.WaitFor(events.PresenceUpdate, 5*time.Second)
	if !ok {
		t.Fatal("no presence event for bob")
	}
	if e.Attr("user") != "bob" || e.Attr("status") != advert.StatusOnline {
		t.Fatalf("presence event = %+v", e)
	}
}

func TestStatsPrimitives(t *testing.T) {
	h := newHarness(t)
	alice := h.client("alice")
	bob := h.client("bob")
	h.login(alice, "pw-alice")
	h.login(bob, "pw-bob")
	ctx := testCtx(t)

	if err := bob.PublishStats(ctx, "math"); err != nil {
		t.Fatalf("PublishStats: %v", err)
	}
	stats, err := alice.GetPeerStats(ctx, bob.PeerID(), "math")
	if err != nil {
		t.Fatalf("GetPeerStats: %v", err)
	}
	if stats.PeerID != bob.PeerID() || stats.MsgsSent == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestMessagingThroughRelay(t *testing.T) {
	h := newHarness(t)
	alice := h.client("alice")
	bob := h.client("bob")
	h.login(alice, "pw-alice")
	h.login(bob, "pw-bob")

	// NAT both directions between the two clients; only the broker path
	// remains, exercising JXTA-Overlay's broker relay role.
	h.net.SetReachable(simnet.NodeID(alice.PeerID()), simnet.NodeID(bob.PeerID()), false)
	h.net.SetReachable(simnet.NodeID(bob.PeerID()), simnet.NodeID(alice.PeerID()), false)

	bobEvents := events.NewCollector(bob.Bus())
	ctx := testCtx(t)
	if err := alice.SendMsgPeer(ctx, bob.PeerID(), "math", "via broker"); err != nil {
		t.Fatalf("SendMsgPeer via relay: %v", err)
	}
	e, ok := bobEvents.WaitFor(events.MessageReceived, 5*time.Second)
	if !ok {
		t.Fatal("relayed message not delivered")
	}
	if string(e.Data) != "via broker" {
		t.Fatalf("payload = %q", e.Data)
	}
}

func TestSecureEnvelopeWithoutExtensionAlerts(t *testing.T) {
	// A raw secure envelope arriving at a plain client must produce a
	// security alert, not a crash or a bogus message event.
	h := newHarness(t)
	alice := h.client("alice")
	bob := h.client("bob")
	h.login(alice, "pw-alice")
	h.login(bob, "pw-bob")
	ctx := testCtx(t)

	pipeAdv, _, err := alice.LookupPipe(ctx, bob.PeerID(), "math")
	if err != nil {
		t.Fatal(err)
	}
	bobEvents := events.NewCollector(bob.Bus())
	msg := newSecEnvelopeMessage()
	if err := alice.Control().SendOnPipe(pipeAdv, nil, msg.Elements...); err != nil {
		t.Fatal(err)
	}
	if _, ok := bobEvents.WaitFor(events.SecurityAlert, 5*time.Second); !ok {
		t.Fatal("no security alert for unhandled secure envelope")
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if strings.TrimSpace(s) == want {
			return true
		}
	}
	return false
}

// A recipient that logs out and in again keeps its group pipe: the pipe
// ID is derived from (peer, group), so the advertisement a correspondent
// cached during an earlier session still leads to the live pipe and the
// re-join's advertisement replaces it instead of lying beside it. With a
// minted ID per session the correspondent held one record per session
// and sent to whichever sorted first — most often a pipe that was gone,
// with Send returning nil.
func TestSendReachesRecipientAfterRejoin(t *testing.T) {
	h := newHarness(t)
	alice := h.client("alice")
	bob := h.client("bob")
	h.login(alice, "pw-alice")
	h.login(bob, "pw-bob")
	bobEvents := events.NewCollector(bob.Bus())
	ctx := testCtx(t)

	delivered := func(text string) bool {
		return waituntil.True(5*time.Second, func() bool {
			for _, e := range bobEvents.OfType(events.MessageReceived) {
				if string(e.Data) == text {
					return true
				}
			}
			return false
		})
	}
	// alice caches the advertisement of bob's first session.
	if err := alice.SendMsgPeer(ctx, bob.PeerID(), "math", "round 0"); err != nil || !delivered("round 0") {
		t.Fatalf("first message: err=%v", err)
	}

	// What a re-join leaves behind must not depend on how many came before.
	var aliceLen, brokerLen int
	for round := 1; round <= 12; round++ {
		if err := bob.Logout(ctx); err != nil {
			t.Fatalf("round %d logout: %v", round, err)
		}
		h.login(bob, "pw-bob")
		text := fmt.Sprintf("round %d", round)
		if err := alice.SendMsgPeer(ctx, bob.PeerID(), "math", text); err != nil {
			t.Fatalf("round %d send: %v", round, err)
		}
		if !delivered(text) {
			t.Fatalf("round %d: message sent without error and never delivered", round)
		}
		// The re-join's pushes (presence off, presence on, pipe) land on
		// alice late and in any order, but each replaces a record she
		// already holds: once both of bob's are there, no key is missing.
		settled := func() bool {
			_, errPres := alice.Cache().Lookup(advert.TypePresence, string(bob.PeerID())+"/math")
			_, errPipe := alice.Cache().Lookup(advert.TypePipe, advert.GroupPipeID(bob.PeerID(), "math"))
			return errPres == nil && errPipe == nil
		}
		switch round {
		case 1:
			waituntil.Must(t, 5*time.Second, settled, "alice holds no presence and pipe record for bob")
			aliceLen, brokerLen = alice.Cache().Len(), h.br.Cache().Len()
		case 10:
			waituntil.Must(t, 5*time.Second, settled, "alice holds no presence and pipe record for bob")
			if a, b := alice.Cache().Len(), h.br.Cache().Len(); a != aliceLen || b != brokerLen {
				t.Fatalf("records after re-join 10: alice %d, broker %d; after re-join 1: %d, %d", a, b, aliceLen, brokerLen)
			}
		}
	}
}
