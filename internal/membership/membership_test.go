package membership

import (
	"math/rand"
	"testing"
	"time"

	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/keys"
)

func TestNoneJoin(t *testing.T) {
	m := NewNone()
	id, err := m.Join("alice")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if id.Secure() {
		t.Fatal("None identity reports Secure")
	}
	if id.PeerID != keys.LegacyPeerID("alice") {
		t.Fatalf("peer id = %q", id.PeerID)
	}
	if _, err := m.Join(""); err == nil {
		t.Fatal("Join(\"\") succeeded")
	}
}

func TestPSEJoinCreatesCBID(t *testing.T) {
	m := NewPSE("", 0)
	id, err := m.Join("alice")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if !id.Secure() {
		t.Fatal("PSE identity not Secure")
	}
	if !keys.IsCBID(id.PeerID) {
		t.Fatalf("peer id %q is not a CBID", id.PeerID)
	}
	if err := keys.VerifyCBID(id.PeerID, id.Keys.Public()); err != nil {
		t.Fatalf("CBID binding: %v", err)
	}
}

func TestPSEJoinStableWithinProcess(t *testing.T) {
	m := NewPSE("", 0)
	a, err := m.Join("alice")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Join("alice")
	if err != nil {
		t.Fatal(err)
	}
	if a.PeerID != b.PeerID {
		t.Fatal("re-join produced a different identity")
	}
	c, err := m.Join("bob")
	if err != nil {
		t.Fatal(err)
	}
	if c.PeerID == a.PeerID {
		t.Fatal("distinct aliases share an identity")
	}
}

func TestPSEPersistence(t *testing.T) {
	dir := t.TempDir()
	m1 := NewPSE(dir, 0)
	id1, err := m1.Join("alice")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	// A second service over the same directory must recover the key.
	m2 := NewPSE(dir, 0)
	id2, err := m2.Join("alice")
	if err != nil {
		t.Fatalf("Join (reload): %v", err)
	}
	if id1.PeerID != id2.PeerID {
		t.Fatal("persisted identity differs across reload")
	}
}

func TestPSECredentialPersistence(t *testing.T) {
	dir := t.TempDir()
	issuer, err := keys.KeyPairFrom(rand.New(rand.NewSource(5)), keys.DefaultRSABits)
	if err != nil {
		t.Fatal(err)
	}
	issuerID, _ := keys.CBID(issuer.Public())

	m1 := NewPSE(dir, 0)
	id, err := m1.Join("alice")
	if err != nil {
		t.Fatal(err)
	}
	c, err := cred.Issue(issuer, issuerID, id.PeerID, "alice", cred.RoleClient, id.Keys.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.SetCredential(c); err != nil {
		t.Fatalf("SetCredential: %v", err)
	}

	m2 := NewPSE(dir, 0)
	id2, err := m2.Join("alice")
	if err != nil {
		t.Fatal(err)
	}
	if id2.Credential == nil {
		t.Fatal("credential not restored from keystore")
	}
	if !id2.Credential.Equal(c) {
		t.Fatal("restored credential differs")
	}
}

func TestPSESetCredentialChecks(t *testing.T) {
	m := NewPSE("", 0)
	issuer, _ := keys.KeyPairFrom(rand.New(rand.NewSource(6)), keys.DefaultRSABits)
	issuerID, _ := keys.CBID(issuer.Public())

	// No identity yet.
	someCred, err := cred.Issue(issuer, issuerID, issuerID, "x", cred.RoleClient, issuer.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetCredential(someCred); err != ErrNotJoined {
		t.Fatalf("SetCredential before Join = %v", err)
	}

	// Credential for a different key.
	id, _ := m.Join("alice")
	if err := m.SetCredential(someCred); err == nil {
		t.Fatal("SetCredential accepted foreign-key credential")
	}
	good, err := cred.Issue(issuer, issuerID, id.PeerID, "alice", cred.RoleClient, id.Keys.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetCredential(good); err != nil {
		t.Fatalf("SetCredential: %v", err)
	}
	if id.Credential != good {
		t.Fatal("credential not attached")
	}
}

func TestPSERejectsBadAlias(t *testing.T) {
	m := NewPSE("", 0)
	for _, alias := range []string{"", "a/b", `a\b`} {
		if _, err := m.Join(alias); err == nil {
			t.Errorf("Join(%q) succeeded", alias)
		}
	}
}
