package userdb

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
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

// TestRegisterRefusesRosterBreakingNames: a username is written into the
// broker's peer roster as one "ID|username|status" line. A '|' in it would
// shift the status a client reads, and a newline would inject a roster
// line, so neither registers (nor loads from a saved store); nor does any
// other control character.
func TestRegisterRefusesRosterBreakingNames(t *testing.T) {
	s := testStore()
	for _, name := range []string{
		"eve|online",
		"eve\nurn:jxta:cbid-forged|admin|online",
		"eve\r",
		"eve\t",
		"eve\x00",
		"eve\x7f",
		"eve\u0085",
	} {
		if err := s.Register(name, "pw"); !errors.Is(err, ErrUsername) {
			t.Errorf("Register(%q) = %v, want ErrUsername", name, err)
		}
	}
	for _, name := range []string{"alice", "Ana María", "user-01", "zoë"} {
		if err := s.Register(name, "pw"); err != nil {
			t.Errorf("Register(%q) = %v", name, err)
		}
	}
	if got := len(s.Usernames()); got != 4 {
		t.Fatalf("%d users stored, want the 4 valid ones", got)
	}
	saved := `[{"username":"eve|online","salt":"c2FsdA==","hash":"aGFzaA==","iterations":1,"groups":[]}]`
	if err := testStore().Load(strings.NewReader(saved)); err == nil {
		t.Fatal("a saved store with a roster-breaking username loaded")
	}
}

// TestAuthenticateRacesMutators: a login reads a record while the
// administrator changes it. Authenticate reads what it checks, and the
// groups it returns, under the store's lock, so it never reads a field
// SetDisabled is writing (under -race, a read after releasing the lock
// is a race).
func TestAuthenticateRacesMutators(t *testing.T) {
	s := testStore()
	s.Register("alice", "pw", "math", "zoo")
	const rounds = 300
	var wg sync.WaitGroup
	mutate := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := f(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	mutate(func() error { return s.SetDisabled("alice", false) })
	mutate(func() error { return s.Save(io.Discard) })
	for i := 0; i < rounds; i++ {
		groups, err := s.Authenticate("alice", "pw")
		if err != nil {
			t.Fatalf("authenticate %d beside the mutators: %v", i, err)
		}
		if !slices.IsSorted(groups) || len(slices.Compact(slices.Clone(groups))) != len(groups) ||
			!slices.Contains(groups, "math") || !slices.Contains(groups, "zoo") {
			t.Fatalf("authenticate %d: groups %v", i, groups)
		}
	}
	wg.Wait()
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
	dbKP       *keys.KeyPair
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
	f.dbKP = mustKey(302)

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
	dbID, _ := keys.CBID(f.dbKP.Public())
	f.serverCred, err = cred.Issue(f.adminKP, f.adminCred.Subject, dbID, "central-db", cred.RoleDatabase, f.dbKP.Public(), time.Hour)
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
	f.server = NewServer(f.dbEP, f.store, f.dbKP, trust)

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

// TestRemoteAuthenticateSilentServer: a database that never answers
// holds a query no longer than its caller's deadline.
func TestRemoteAuthenticateSilentServer(t *testing.T) {
	f := newRemoteFixture(t)
	f.dbEP.RegisterHandler(ServiceName, func(keys.PeerID, *endpoint.Message) *endpoint.Message { return nil })
	c, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := f.client.Authenticate(c, "alice", "s3cret")
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Authenticate against a silent server returned %v, want the deadline", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Authenticate against a silent server outlived its caller's deadline")
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
	resp, err := attacker.Request(reqCtx, f.dbEP.PeerID(), ServiceName, msg, 0)
	if err != nil {
		t.Fatalf("replay transport failed: %v", err)
	}
	got <- resp
	if errText, _ := readAnswer(t, resp, attacker.PeerID(), f.dbKP); errText == "" {
		t.Fatal("replayed request was accepted")
	}
}

// readAnswer reads a database answer signed for audience under kp and
// returns its error text ("" when the query was answered) and groups.
func readAnswer(t *testing.T, resp *endpoint.Message, audience keys.PeerID, kp *keys.KeyPair) (errText, groups string) {
	t.Helper()
	raw, _ := resp.Get(elemBody)
	a, err := proto.NewRequestGuard(audience).Open(raw, proto.KindAnswer, time.Now(), func(*proto.Request) (*keys.PublicKey, error) {
		return kp.Public(), nil
	})
	if err != nil {
		t.Fatalf("answer does not read as the server's: %v", err)
	}
	return string(a.Field(proto.AnswerErr)), string(a.Field(proto.AnswerGroups))
}

// TestRemoteRequestSignatureSealed: the broker's signature over a query
// travels inside the envelope with the password, never beside it. A
// signature in clear over the sealed plaintext would let anyone on the
// broker–database link test password guesses offline: rebuild the
// plaintext around each guess and check it under the broker's public key.
// So no cleartext element of the query or of its answer verifies over the
// plaintext under the broker key, and the signature the plaintext carries
// appears in none of them.
func TestRemoteRequestSignatureSealed(t *testing.T) {
	f := newRemoteFixture(t)
	var toDB, fromDB []byte
	f.net.AddTap(func(p simnet.Packet) {
		switch {
		case p.To == simnet.NodeID(f.dbEP.PeerID()) && toDB == nil:
			toDB = bytes.Clone(p.Payload)
		case p.To == simnet.NodeID(f.brEP.PeerID()) && fromDB == nil:
			fromDB = bytes.Clone(p.Payload)
		}
	})
	if _, err := f.client.Authenticate(ctx(t), "alice", "s3cret"); err != nil {
		t.Fatal(err)
	}
	if toDB == nil || fromDB == nil {
		t.Fatal("query or answer not captured")
	}
	query, err := endpoint.ParseFrame(toDB)
	if err != nil {
		t.Fatal(err)
	}
	answer, err := endpoint.ParseFrame(fromDB)
	if err != nil {
		t.Fatal(err)
	}
	envBytes, _ := query.Msg.Get(elemEnvelope)
	env, err := keys.ParseEnvelope(envBytes)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := f.dbKP.Decrypt(env)
	if err != nil {
		t.Fatalf("the database key does not open the captured query: %v", err)
	}
	if !bytes.Contains(plain, []byte("s3cret")) {
		t.Fatal("the sealed plaintext does not carry the password")
	}
	// The plaintext is a query the broker signed for the database: its
	// signature is its last bytes.
	_, err = proto.NewRequestGuard(f.dbEP.PeerID()).Open(plain, proto.KindQuery, time.Now(), func(*proto.Request) (*keys.PublicKey, error) {
		return f.brokerKP.Public(), nil
	})
	if err != nil {
		t.Fatalf("the sealed plaintext is not a query signed by the broker for the database: %v", err)
	}
	sig := plain[len(plain)-f.brokerKP.Bits()/8:]
	for _, m := range []*endpoint.Message{query.Msg, answer.Msg} {
		for _, e := range m.Elements {
			if f.brokerKP.Public().Verify(plain, e.Data) == nil {
				t.Fatalf("cleartext element %q is the broker's signature over the sealed plaintext", e.Name)
			}
			if bytes.Contains(e.Data, sig) {
				t.Fatalf("cleartext element %q carries the query's signature", e.Name)
			}
		}
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
