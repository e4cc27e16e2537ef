package userdb

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/lru"
	"jxtaoverlay/internal/simnet"
)

// Fast hashing for tests.
func testStore() *Store { return NewStoreIter(4) }

func TestRegisterAuthenticate(t *testing.T) {
	s := testStore()
	if err := s.Register("alice", "s3cret", "math", "art"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	groups, err := s.Authenticate("alice", "s3cret")
	if err != nil {
		t.Fatalf("Authenticate: %v", err)
	}
	if len(groups) != 2 || groups[0] != "art" || groups[1] != "math" {
		t.Fatalf("groups = %v", groups)
	}
}

func TestAuthenticateFailuresUniform(t *testing.T) {
	s := testStore()
	s.Register("alice", "s3cret")
	if _, err := s.Authenticate("alice", "wrong"); err != ErrAuth {
		t.Fatalf("bad password = %v", err)
	}
	if _, err := s.Authenticate("bob", "s3cret"); err != ErrAuth {
		t.Fatalf("unknown user = %v", err)
	}
	s.SetDisabled("alice", true)
	if _, err := s.Authenticate("alice", "s3cret"); err != ErrAuth {
		t.Fatalf("disabled user = %v", err)
	}
	s.SetDisabled("alice", false)
	if _, err := s.Authenticate("alice", "s3cret"); err != nil {
		t.Fatalf("re-enabled user = %v", err)
	}
}

func TestRegisterDuplicate(t *testing.T) {
	s := testStore()
	s.Register("alice", "x")
	if err := s.Register("alice", "y"); err == nil {
		t.Fatal("duplicate Register succeeded")
	}
	if err := s.Register("", "y"); err == nil {
		t.Fatal("empty username accepted")
	}
}

func TestSetPassword(t *testing.T) {
	s := testStore()
	s.Register("alice", "old")
	if err := s.SetPassword("alice", "new"); err != nil {
		t.Fatalf("SetPassword: %v", err)
	}
	if _, err := s.Authenticate("alice", "old"); err != ErrAuth {
		t.Fatal("old password still valid")
	}
	if _, err := s.Authenticate("alice", "new"); err != nil {
		t.Fatalf("new password rejected: %v", err)
	}
	if err := s.SetPassword("ghost", "x"); err == nil {
		t.Fatal("SetPassword for missing user succeeded")
	}
}

func TestGroupManagement(t *testing.T) {
	s := testStore()
	s.Register("alice", "x", "math")
	if err := s.AddToGroup("alice", "art"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddToGroup("alice", "art"); err != nil {
		t.Fatal("idempotent AddToGroup failed")
	}
	groups, _ := s.Groups("alice")
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if err := s.RemoveFromGroup("alice", "math"); err != nil {
		t.Fatal(err)
	}
	groups, _ = s.Groups("alice")
	if len(groups) != 1 || groups[0] != "art" {
		t.Fatalf("groups = %v", groups)
	}
	if _, err := s.Groups("ghost"); err == nil {
		t.Fatal("Groups for missing user succeeded")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := testStore()
	s.Register("alice", "pw1", "math")
	s.Register("bob", "pw2")
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	s2 := testStore()
	if err := s2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := s2.Authenticate("alice", "pw1"); err != nil {
		t.Fatalf("Authenticate after load: %v", err)
	}
	if got := s2.Usernames(); len(got) != 2 || got[0] != "alice" {
		t.Fatalf("Usernames = %v", got)
	}
}

func TestLoadRejectsMalformed(t *testing.T) {
	s := testStore()
	if err := s.Load(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("Load accepted garbage")
	}
	if err := s.Load(bytes.NewReader([]byte(`[{"username":""}]`))); err == nil {
		t.Fatal("Load accepted malformed record")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "users.json")
	s := testStore()
	s.Register("alice", "pw")
	if err := s.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	s2 := testStore()
	if err := s2.LoadFile(path); err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if _, err := s2.Authenticate("alice", "pw"); err != nil {
		t.Fatal("authentication after file round trip failed")
	}
}

// --- remote protocol ---

type remoteFixture struct {
	net        *simnet.Network
	server     *Server
	client     *Client
	store      *Store
	adminKP    *keys.KeyPair
	brokerKP   *keys.KeyPair
	adminCred  *cred.Credential
	brokerCred *cred.Credential
	serverCred *cred.Credential
	dbEP       *endpoint.Service
	brEP       *endpoint.Service
}

func newRemoteFixture(t *testing.T) *remoteFixture {
	t.Helper()
	f := &remoteFixture{}
	f.net = simnet.NewNetwork(simnet.ProfileLocal)
	t.Cleanup(f.net.Close)

	f.adminKP = mustKey(300)
	f.brokerKP = mustKey(301)
	dbKP := mustKey(302)

	var err error
	f.adminCred, err = cred.SelfSigned(f.adminKP, "admin", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	brID, _ := keys.CBID(f.brokerKP.Public())
	f.brokerCred, err = cred.Issue(f.adminKP, f.adminCred.Subject, brID, "broker-1", cred.RoleBroker, f.brokerKP.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	dbID, _ := keys.CBID(dbKP.Public())
	f.serverCred, err = cred.Issue(f.adminKP, f.adminCred.Subject, dbID, "central-db", cred.RoleDatabase, dbKP.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	trust, err := cred.NewTrustStore(f.adminCred)
	if err != nil {
		t.Fatal(err)
	}

	f.store = testStore()
	f.store.Register("alice", "s3cret", "math")

	f.dbEP, err = endpoint.NewService(f.net, dbID)
	if err != nil {
		t.Fatal(err)
	}
	f.server = NewServer(f.dbEP, f.store, dbKP, f.serverCred, trust)

	f.brEP, err = endpoint.NewService(f.net, brID)
	if err != nil {
		t.Fatal(err)
	}
	f.client = NewClient(f.brEP, dbID, f.brokerKP, f.brokerCred, f.serverCred)
	return f
}

func mustKey(seed int64) *keys.KeyPair {
	kp, err := keys.KeyPairFrom(rand.New(rand.NewSource(seed)), keys.DefaultRSABits)
	if err != nil {
		panic(err)
	}
	return kp
}

func ctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return c
}

func TestRemoteAuthenticate(t *testing.T) {
	f := newRemoteFixture(t)
	groups, err := f.client.Authenticate(ctx(t), "alice", "s3cret")
	if err != nil {
		t.Fatalf("remote Authenticate: %v", err)
	}
	if len(groups) != 1 || groups[0] != "math" {
		t.Fatalf("groups = %v", groups)
	}
}

func TestRemoteAuthenticateFailure(t *testing.T) {
	f := newRemoteFixture(t)
	if _, err := f.client.Authenticate(ctx(t), "alice", "wrong"); err != ErrAuth {
		t.Fatalf("remote bad password = %v, want ErrAuth", err)
	}
	if _, err := f.client.Authenticate(ctx(t), "ghost", "x"); err != ErrAuth {
		t.Fatalf("remote unknown user = %v, want ErrAuth", err)
	}
}

func TestRemoteGroups(t *testing.T) {
	f := newRemoteFixture(t)
	groups, err := f.client.Groups(ctx(t), "alice")
	if err != nil {
		t.Fatalf("remote Groups: %v", err)
	}
	if len(groups) != 1 || groups[0] != "math" {
		t.Fatalf("groups = %v", groups)
	}
	if _, err := f.client.Groups(ctx(t), "ghost"); err != ErrNoUser {
		t.Fatalf("remote Groups(ghost) = %v, want ErrNoUser", err)
	}
}

func TestRemoteRejectsNonBroker(t *testing.T) {
	f := newRemoteFixture(t)
	// A client peer (not a broker) with a valid *client* credential tries
	// to query the DB directly.
	clKP := mustKey(305)
	clID, _ := keys.CBID(clKP.Public())
	clCred, err := cred.Issue(f.adminKP, f.adminCred.Subject, clID, "eve", cred.RoleClient, clKP.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	clEP, err := endpoint.NewService(f.net, clID)
	if err != nil {
		t.Fatal(err)
	}
	evil := NewClient(clEP, f.dbEP.PeerID(), clKP, clCred, f.serverCred)
	if _, err := evil.Authenticate(ctx(t), "alice", "s3cret"); err == nil {
		t.Fatal("database answered a non-broker caller")
	}
}

func TestRemoteRejectsSelfIssuedBroker(t *testing.T) {
	f := newRemoteFixture(t)
	// Fake broker with a self-issued "broker" credential.
	evilKP := mustKey(306)
	evilID, _ := keys.CBID(evilKP.Public())
	evilCred, err := cred.Issue(evilKP, evilID, evilID, "fake-broker", cred.RoleBroker, evilKP.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	evilEP, err := endpoint.NewService(f.net, evilID)
	if err != nil {
		t.Fatal(err)
	}
	evil := NewClient(evilEP, f.dbEP.PeerID(), evilKP, evilCred, f.serverCred)
	if _, err := evil.Authenticate(ctx(t), "alice", "s3cret"); err == nil {
		t.Fatal("database trusted a self-issued broker credential")
	}
}

func TestRemotePasswordNeverOnWireInClear(t *testing.T) {
	f := newRemoteFixture(t)
	f.store.Register("bob", "ultra-secret-passphrase")
	var sniffed []byte
	f.net.AddTap(func(p simnet.Packet) {
		sniffed = append(sniffed, p.Payload...)
	})
	if _, err := f.client.Authenticate(ctx(t), "bob", "ultra-secret-passphrase"); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sniffed, []byte("ultra-secret-passphrase")) {
		t.Fatal("password visible on the wire to the database")
	}
}

func TestRemoteReplayRejected(t *testing.T) {
	f := newRemoteFixture(t)
	// Capture the broker's request frame, then replay it verbatim.
	var captured []byte
	f.net.AddTap(func(p simnet.Packet) {
		if p.To == simnet.NodeID(f.dbEP.PeerID()) && captured == nil {
			captured = append([]byte(nil), p.Payload...)
		}
	})
	if _, err := f.client.Authenticate(ctx(t), "alice", "s3cret"); err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("no frame captured")
	}
	// Replay from an attacker node.
	attacker, err := endpoint.NewService(f.net, "urn:jxta:cbid-attacker")
	if err != nil {
		t.Fatal(err)
	}
	_ = attacker
	got := make(chan *endpoint.Message, 1)
	// Replay raw: parse the captured frame, re-send its elements as a
	// fresh request from the attacker and watch the response.
	fr, err := endpoint.ParseFrame(captured)
	if err != nil {
		t.Fatal(err)
	}
	msg := fr.Msg
	reqCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := attacker.Request(reqCtx, f.dbEP.PeerID(), ServiceName, msg)
	if err != nil {
		t.Fatalf("replay transport failed: %v", err)
	}
	got <- resp
	body, _ := resp.Get(elemBody)
	if !bytes.Contains(body, []byte("<OK>0</OK>")) {
		t.Fatalf("replayed request was accepted: %s", body)
	}
}

// nonceTable is a Server with nothing but its request-nonce table: what
// checkNonce touches, at the now it is handed.
func nonceTable() *Server {
	return &Server{seen: lru.NewWindow[string, struct{}](nonceCapacity)}
}

// TestNoncePastWindowForgotten: a nonce is refused for as long as a replay
// of its request could pass the timestamp check, 2·maxSkew, and is then
// dropped by the next admit, not kept against the bound.
func TestNoncePastWindowForgotten(t *testing.T) {
	s, base := nonceTable(), time.Now()
	if err := s.checkNonce("n", base); err != nil {
		t.Fatal(err)
	}
	if err := s.checkNonce("n", base.Add(2*maxSkew)); err != ErrReplay {
		t.Fatalf("nonce at the window's edge = %v, want ErrReplay", err)
	}
	past := base.Add(2*maxSkew + time.Nanosecond)
	if err := s.checkNonce("other", past); err != nil {
		t.Fatal(err)
	}
	if n := s.seen.Len(); n != 1 {
		t.Fatalf("%d nonces held after the first one's window, want 1", n)
	}
	if err := s.checkNonce("n", past); err != nil {
		t.Fatalf("nonce past its window = %v, want it forgotten", err)
	}
}

// TestNonceTableStaysAtCapacity: full, the table gives up the nonce closest
// to expiry — the first admitted — and counts it.
func TestNonceTableStaysAtCapacity(t *testing.T) {
	s, base := nonceTable(), time.Now()
	for i := 0; i < nonceCapacity; i++ {
		if err := s.checkNonce("n"+strconv.Itoa(i), base.Add(time.Duration(i)*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.NonceEvictions(); got != 0 {
		t.Fatalf("NonceEvictions = %d while filling, want 0", got)
	}
	now := base.Add(time.Minute)
	if err := s.checkNonce("one more", now); err != nil {
		t.Fatal(err)
	}
	if n, ev := s.seen.Len(), s.NonceEvictions(); n != nonceCapacity || ev != 1 {
		t.Fatalf("%d nonces held, %d evicted live; want %d and 1", n, ev, nonceCapacity)
	}
	if err := s.checkNonce("n1", now); err != ErrReplay {
		t.Fatalf("second-oldest nonce = %v, want ErrReplay: only the one closest to expiry may go", err)
	}
	if err := s.checkNonce("n0", now); err != nil {
		t.Fatalf("oldest nonce = %v, want it given up", err)
	}
}

// TestNonceAdmitDoesNotScan: an admit on a full table costs what it costs
// on an empty one — no walk over the table, which is what every request
// used to pay (core's TestReplayGuardAdmitDoesNotScan measure: 10,000
// admits against 10,000 walks of a map the table's size).
func TestNonceAdmitDoesNotScan(t *testing.T) {
	const admits = 10000
	s, now := nonceTable(), time.Now()
	nonces := make([]string, nonceCapacity+admits)
	for i := range nonces {
		nonces[i] = "nonce-" + strconv.Itoa(i)
	}
	for _, n := range nonces[:nonceCapacity] {
		s.checkNonce(n, now)
	}
	table := make(map[int]int64, nonceCapacity)
	for i := 0; i < nonceCapacity; i++ {
		table[i] = 0
	}
	start, visited := time.Now(), 0
	for i := 0; i < admits/100; i++ {
		for range table {
			visited++
		}
	}
	scan := time.Since(start) * 100
	if visited != nonceCapacity*admits/100 {
		t.Fatalf("walked %d entries, want %d", visited, nonceCapacity*admits/100)
	}

	start = time.Now()
	for _, n := range nonces[nonceCapacity:] {
		if err := s.checkNonce(n, now); err != nil {
			t.Fatal(err)
		}
	}
	took := time.Since(start)
	t.Logf("%d admits %v, %d table walks %v", admits, took, admits, scan)
	if took > scan/4 {
		t.Errorf("%d admits on a full table took %v; one table walk per admit would take %v", admits, took, scan)
	}
	if n := s.seen.Len(); n != nonceCapacity {
		t.Errorf("%d nonces held after admits at capacity, want %d", n, nonceCapacity)
	}
}

func TestRemoteResponseAuthenticity(t *testing.T) {
	f := newRemoteFixture(t)
	// A response signed by the wrong key must be rejected by the client.
	otherKP := mustKey(307)
	fakeCred := f.serverCred.Clone()
	fakeCred.Key = otherKP.Public()
	badClient := NewClient(f.brEP, f.dbEP.PeerID(), f.brokerKP, f.brokerCred, fakeCred)
	// badClient encrypts to the wrong key too, so the server can't even
	// decrypt; either way the call must fail.
	if _, err := badClient.Authenticate(ctx(t), "alice", "s3cret"); err == nil {
		t.Fatal("client accepted response under mismatched server credential")
	}
}
