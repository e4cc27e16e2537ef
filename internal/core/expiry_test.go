package core_test

import (
	"testing"
	"time"

	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"

	"context"
)

// TestSecureConnectionRejectsExpiredBrokerCredential: credentials carry
// a validity window ("until cr's expiration date", §4.2.2); a broker
// whose administrator-issued credential has lapsed must fail the
// legitimacy check even though the signature itself is genuine.
func TestSecureConnectionRejectsExpiredBrokerCredential(t *testing.T) {
	net := simnet.NewNetwork(simnet.ProfileLocal)
	t.Cleanup(net.Close)
	dep, err := core.NewDeployment("admin", 0)
	if err != nil {
		t.Fatal(err)
	}
	db := userdb.NewStoreIter(4)
	db.Register("alice", "pw", "g")

	brKP, _ := keys.NewKeyPair()
	// Validity so short the credential is stale by the time the client
	// checks it.
	brCred, err := dep.IssueBrokerCredential(brKP.Public(), "broker-1", time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	site, err := dep.StartBroker(
		broker.Config{Name: "broker-1", Net: net, DB: broker.LocalDB(db)},
		core.BrokerConfig{KeyPair: brKP, Credential: brCred})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	time.Sleep(5 * time.Millisecond) // let the credential lapse

	sc, err := dep.NewClient(net, "alice")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sc.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sc.SecureConnection(ctx, site.Broker.PeerID()); err == nil {
		t.Fatal("secureConnection accepted an expired broker credential")
	}
}

// TestClientCredentialValidityWindow: the credential issued at
// secureLogin carries the configured validity.
func TestClientCredentialValidityWindow(t *testing.T) {
	h := newSecureHarness(t, false)
	sc := h.secureClient("alice")
	h.join(sc, "pw-alice")
	crd := sc.Identity().Credential
	if crd == nil {
		t.Fatal("no credential")
	}
	ttl := time.Until(crd.NotAfter)
	if ttl <= 0 || ttl > core.DefaultCredValidity+time.Minute {
		t.Fatalf("credential validity = %v, want about %v", ttl, core.DefaultCredValidity)
	}
}
