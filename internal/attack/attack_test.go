// The tests in this package are the executable form of the paper's
// security analysis: each vulnerability in §2.3 is demonstrated against
// the original primitives, and each corresponding defense in §4 is
// demonstrated against the secure ones.
package attack_test

import (
	"context"
	"testing"
	"time"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
	"jxtaoverlay/internal/xdsig"
	"jxtaoverlay/internal/xmldoc"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// plainStack assembles the original, insecure deployment.
type plainStack struct {
	net *simnet.Network
	br  *broker.Broker
	db  *userdb.Store
}

func newPlainStack(t *testing.T) *plainStack {
	t.Helper()
	net := simnet.NewNetwork(simnet.ProfileLocal)
	t.Cleanup(net.Close)
	db := userdb.NewStoreIter(4)
	db.Register("alice", "alice-secret-pw", "math")
	db.Register("bob", "bob-secret-pw", "math")
	db.Register("mallory", "mallory-pw", "math") // a legitimate but malicious user
	br, err := broker.New(broker.Config{
		Name: "broker-1", PeerID: keys.LegacyPeerID("broker-1"), Net: net,
		DB: broker.LocalDB(db),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(br.Close)
	return &plainStack{net: net, br: br, db: db}
}

func (s *plainStack) login(t *testing.T, alias, password string) *client.Client {
	t.Helper()
	cl, err := client.New(s.net, membership.NewNone(), alias)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	ctx := testCtx(t)
	if err := cl.Connect(ctx, s.br.PeerID()); err != nil {
		t.Fatal(err)
	}
	if err := cl.Login(ctx, password); err != nil {
		t.Fatal(err)
	}
	return cl
}

// --- Vulnerability 1: eavesdropping (§2.3 bullet 1) ---

func TestPlainLoginLeaksPassword(t *testing.T) {
	s := newPlainStack(t)
	eve := attack.NewEavesdropper(s.net)
	s.login(t, "alice", "alice-secret-pw")
	if !eve.SawString("alice-secret-pw") {
		t.Fatal("expected the plain login to leak the password (vulnerability not reproduced)")
	}
}

func TestPlainMessageLeaksContent(t *testing.T) {
	s := newPlainStack(t)
	alice := s.login(t, "alice", "alice-secret-pw")
	bob := s.login(t, "bob", "bob-secret-pw")
	eve := attack.NewEavesdropper(s.net)
	ctx := testCtx(t)
	if err := alice.SendMsgPeer(ctx, bob.PeerID(), "math", "my-private-note"); err != nil {
		t.Fatal(err)
	}
	if !eve.SawString("my-private-note") {
		t.Fatal("expected the plain message to be readable on the wire")
	}
}

// --- Vulnerability 2: advertisement forgery (§2.3 bullet 2) ---

func TestPlainPresenceForgeryAccepted(t *testing.T) {
	// Mallory, a legitimate user, forges alice's presence advertisement
	// (claiming she went offline). The broker accepts and propagates it,
	// and every group member updates its view — "accepted by all group
	// members, unaware of the false data".
	s := newPlainStack(t)
	alice := s.login(t, "alice", "alice-secret-pw")
	bob := s.login(t, "bob", "bob-secret-pw")
	mallory := s.login(t, "mallory", "mallory-pw")

	bobEvents := events.NewCollector(bob.Bus())
	ctx := testCtx(t)
	forged := attack.ForgePresence(alice.PeerID(), "alice", "math", "offline")
	if err := mallory.PublishAdvDoc(ctx, forged); err != nil {
		t.Fatalf("plain broker rejected the forged advertisement: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var hit bool
		for _, e := range bobEvents.OfType(events.PresenceUpdate) {
			if e.Attr("user") == "alice" && e.Attr("status") == "offline" {
				hit = true
			}
		}
		if hit {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("forged presence never reached bob (vulnerability not reproduced)")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = alice // alice never went offline; her view was falsified anyway
}

func TestPlainMessageSourceSpoofing(t *testing.T) {
	// No source authenticity: an attacker node injects a pipe message
	// with alice's peer ID in the source element, and bob's application
	// sees a message "from alice".
	s := newPlainStack(t)
	alice := s.login(t, "alice", "alice-secret-pw")
	bob := s.login(t, "bob", "bob-secret-pw")

	bobPipe, ok := bob.Control().GroupPipeAdv("math")
	if !ok {
		t.Fatal("bob has no math pipe")
	}
	raw, err := attack.NewRawNode(s.net, "attacker-node")
	if err != nil {
		t.Fatal(err)
	}
	bobEvents := events.NewCollector(bob.Bus())
	frame := attack.SpoofedPipeMessage(alice.PeerID(), bobPipe.PipeID, "math", "wire me money")
	if err := raw.Replay(simnet.NodeID(bob.PeerID()), frame); err != nil {
		t.Fatalf("inject: %v", err)
	}
	e, ok := bobEvents.WaitFor(events.MessageReceived, 5*time.Second)
	if !ok {
		t.Fatal("spoofed message not delivered (vulnerability not reproduced)")
	}
	if e.From != alice.PeerID() {
		t.Fatalf("spoofed source = %q, want alice's ID", e.From)
	}
	if string(e.Data) != "wire me money" {
		t.Fatalf("payload = %q", e.Data)
	}
}

// --- Vulnerability 3: fake broker (§2.3 bullet 3) ---

func TestPlainClientTrustsFakeBroker(t *testing.T) {
	s := newPlainStack(t)
	harvested := make(chan [2]string, 1)
	fake, err := attack.NewFakeBroker(s.net, "broker-1", keys.LegacyPeerID("evil"), harvested)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fake.Close)

	// Alice's traffic is redirected (DNS spoofing analog): she connects
	// to the fake broker's address believing it is broker-1.
	cl, err := client.New(s.net, membership.NewNone(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	ctx := testCtx(t)
	if err := cl.Connect(ctx, fake.PeerID()); err != nil {
		t.Fatal(err)
	}
	if err := cl.Login(ctx, "alice-secret-pw"); err != nil {
		t.Fatalf("fake broker rejected the login: %v", err)
	}
	select {
	case creds := <-harvested:
		if creds[0] != "alice" || creds[1] != "alice-secret-pw" {
			t.Fatalf("harvested = %v", creds)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fake broker harvested nothing")
	}
}

// --- Vulnerability 4: login replay ---

func TestPlainLoginReplay(t *testing.T) {
	s := newPlainStack(t)
	eve := attack.NewEavesdropper(s.net)
	alice := s.login(t, "alice", "alice-secret-pw")
	bob := s.login(t, "bob", "bob-secret-pw")

	ctx := testCtx(t)
	// Snapshot the captured traffic BEFORE logout so the replay set
	// contains the login exchange but not the logout.
	brokerNode := simnet.NodeID(s.br.PeerID())
	captured := eve.FramesTo(brokerNode)
	if len(captured) == 0 {
		t.Fatal("no frames captured")
	}

	// Alice logs out; she is gone from the network view.
	if err := alice.Logout(ctx); err != nil {
		t.Fatal(err)
	}
	online, _ := bob.GetOnlinePeers(ctx, "math")
	for _, p := range online {
		if p.Username == "alice" {
			t.Fatal("alice still online after logout")
		}
	}

	// The attacker replays alice's captured login frame verbatim —
	// without knowing the password — and alice "logs in" again.
	raw, err := attack.NewRawNode(s.net, "attacker-node")
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range captured {
		if err := raw.Replay(brokerNode, frame); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		online, _ = bob.GetOnlinePeers(ctx, "math")
		for _, p := range online {
			if p.Username == "alice" {
				return // vulnerability reproduced: replay re-authenticated alice
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("replayed login did not re-authenticate alice (vulnerability not reproduced)")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// --- Defenses: the same attacks against the secure stack ---

type secureStack struct {
	net   *simnet.Network
	dep   *core.Deployment
	br    *broker.Broker
	db    *userdb.Store
	brKP  *keys.KeyPair
	brSec *core.BrokerSecurity
}

func newSecureStack(t *testing.T) *secureStack {
	t.Helper()
	return newSecureStackWith(t, core.BrokerConfig{RequireSignedAdvs: true})
}

// newSecureStackWith lets a test choose the broker's security
// configuration.
func newSecureStackWith(t *testing.T, sc core.BrokerConfig) *secureStack {
	t.Helper()
	net := simnet.NewNetwork(simnet.ProfileLocal)
	t.Cleanup(net.Close)
	dep, err := core.NewDeployment("admin", 0)
	if err != nil {
		t.Fatal(err)
	}
	db := userdb.NewStoreIter(4)
	db.Register("alice", "alice-secret-pw", "math")
	db.Register("bob", "bob-secret-pw", "math")
	db.Register("mallory", "mallory-pw", "math")
	site, err := dep.StartBroker(
		broker.Config{Name: "broker-1", Net: net, DB: broker.LocalDB(db), RequireSecureLogin: true}, sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	return &secureStack{net: net, dep: dep, br: site.Broker, db: db, brKP: site.KeyPair, brSec: site.Security}
}

func (s *secureStack) join(t *testing.T, alias, password string, opts ...core.Option) *core.SecureClient {
	t.Helper()
	sc := s.client(t, alias, opts...)
	if err := sc.Join(testCtx(t), s.br.PeerID(), password); err != nil {
		t.Fatal(err)
	}
	return sc
}

// connected is a secure client that has run secureConnection only.
func (s *secureStack) connected(t *testing.T, alias string, opts ...core.Option) *core.SecureClient {
	t.Helper()
	sc := s.client(t, alias, opts...)
	if err := sc.SecureConnection(testCtx(t), s.br.PeerID()); err != nil {
		t.Fatal(err)
	}
	return sc
}

func (s *secureStack) client(t *testing.T, alias string, opts ...core.Option) *core.SecureClient {
	t.Helper()
	sc, err := s.dep.NewClient(s.net, alias, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sc.Close)
	return sc
}

func TestSecureLoginDefeatsEavesdropper(t *testing.T) {
	s := newSecureStack(t)
	eve := attack.NewEavesdropper(s.net)
	s.join(t, "alice", "alice-secret-pw")
	if eve.SawString("alice-secret-pw") {
		t.Fatal("secure login leaked the password")
	}
	if eve.FrameCount() == 0 {
		t.Fatal("eavesdropper saw no traffic at all (tap broken)")
	}
}

func TestSecureMessagingDefeatsEavesdropper(t *testing.T) {
	s := newSecureStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	bob := s.join(t, "bob", "bob-secret-pw")
	eve := attack.NewEavesdropper(s.net)
	ctx := testCtx(t)
	if err := alice.SecureMsgPeer(ctx, bob.PeerID(), "math", "my-private-note"); err != nil {
		t.Fatal(err)
	}
	if eve.SawString("my-private-note") {
		t.Fatal("secure message readable on the wire")
	}
}

func TestSecureBrokerDefeatsAdvForgery(t *testing.T) {
	s := newSecureStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	mallory := s.join(t, "mallory", "mallory-pw")
	ctx := testCtx(t)

	// Unsigned forgery: rejected outright.
	forged := attack.ForgePipeAdv(alice.PeerID(), "urn:jxta:pipe-evil", mallory.PeerID(), "math")
	if err := mallory.PublishAdvDoc(ctx, forged); err == nil {
		t.Fatal("secure broker accepted an unsigned forged advertisement")
	}

	// Signed-by-the-wrong-peer forgery: mallory signs with her own valid
	// credential, but she does not own alice's identity.
	forged2 := attack.ForgePipeAdv(alice.PeerID(), "urn:jxta:pipe-evil2", alice.PeerID(), "math")
	id := mallory.Identity()
	if err := signDoc(forged2, id); err != nil {
		t.Fatal(err)
	}
	if err := mallory.PublishAdvDoc(ctx, forged2); err == nil {
		t.Fatal("secure broker accepted a foreign-signed forged advertisement")
	}
}

func TestSecureLoginReplayDefeated(t *testing.T) {
	s := newSecureStack(t)
	eve := attack.NewEavesdropper(s.net)
	alice := s.join(t, "alice", "alice-secret-pw")
	bob := s.join(t, "bob", "bob-secret-pw")
	ctx := testCtx(t)
	brokerNode := simnet.NodeID(s.br.PeerID())
	captured := eve.FramesTo(brokerNode) // includes the secureLogin frame
	if err := alice.Logout(ctx); err != nil {
		t.Fatal(err)
	}

	raw, err := attack.NewRawNode(s.net, "attacker-node")
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range captured {
		_ = raw.Replay(brokerNode, frame)
	}
	// Give the replays time to be processed, then confirm alice stayed
	// offline: the single-use sid blocks re-authentication.
	time.Sleep(200 * time.Millisecond)
	online, err := bob.GetOnlinePeers(ctx, "math")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range online {
		if p.Username == "alice" {
			t.Fatal("replayed secureLogin re-authenticated alice")
		}
	}
}

// signDoc signs a document with a client identity's credential chain.
func signDoc(doc *xmldoc.Element, id *membership.Identity) error {
	return xdsig.Sign(doc, id.Keys, id.Chain...)
}
