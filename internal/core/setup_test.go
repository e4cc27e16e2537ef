package core_test

// The bring-up itself: what StartBroker fills in and what it refuses,
// BrokerSite.Close, NewClient, Join.

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
	"jxtaoverlay/internal/waituntil"
)

func setupNet(t *testing.T) (*simnet.Network, *core.Deployment, *userdb.Store) {
	t.Helper()
	net := simnet.NewNetwork(simnet.ProfileLocal)
	t.Cleanup(net.Close)
	dep, err := core.NewDeployment("admin", 0)
	if err != nil {
		t.Fatal(err)
	}
	db := userdb.NewStoreIter(4)
	db.Register("alice", "pw-alice", "math")
	return net, dep, db
}

func TestStartBrokerFillsDefaults(t *testing.T) {
	net, dep, db := setupNet(t)
	site, err := dep.StartBroker(broker.Config{Name: "broker-1", Net: net, DB: broker.LocalDB(db)}, core.BrokerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	cbid, err := keys.CBID(site.KeyPair.Public())
	if err != nil {
		t.Fatal(err)
	}
	if site.Broker.PeerID() != site.Credential.Subject || site.Credential.Subject != cbid {
		t.Fatalf("broker %s, credential subject %s, key CBID %s: want one ID", site.Broker.PeerID(), site.Credential.Subject, cbid)
	}
	if c := site.Credential; c.Role != cred.RoleBroker || c.SubjectName != "broker-1" || c.Issuer != dep.AdminID() {
		t.Fatalf("credential %+v: want role broker, name broker-1, issued by the administrator", c)
	}
	if site.KeyPair.Bits() != keys.DefaultRSABits {
		t.Fatalf("broker key is %d bits, the deployment's are %d", site.KeyPair.Bits(), keys.DefaultRSABits)
	}
	if site.Security.Credential() != site.Credential {
		t.Fatal("the extension runs under another credential than the site reports")
	}
	// A caller may name the PeerID, and its own key and credential, as long
	// as they agree.
	site.Close()
	again, err := dep.StartBroker(broker.Config{Name: "broker-1", Net: net, DB: broker.LocalDB(db), PeerID: cbid},
		core.BrokerConfig{KeyPair: site.KeyPair, Credential: site.Credential})
	if err != nil {
		t.Fatalf("a PeerID that is the credential's subject was refused: %v", err)
	}
	again.Close()
}

// A caller that supplies its own key, credential or PeerID gets the
// refusals EnableBrokerSecurity gives for them, word for word, and no
// broker is left attached.
func TestStartBrokerRefusals(t *testing.T) {
	net, dep, db := setupNet(t)
	kp, err := keys.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	other, err := keys.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	brokerCred, err := dep.IssueBrokerCredential(kp.Public(), "broker-1", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	adminCred, err := cred.SelfSigned(kp, "broker-1", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := broker.New(broker.Config{Name: "plain", PeerID: "urn:jxta:plain", Net: net, DB: broker.LocalDB(db)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plain.Close)

	for _, tc := range []struct {
		name   string
		peerID keys.PeerID
		sc     core.BrokerConfig
		want   string // "" = whatever EnableBrokerSecurity says to sc
	}{
		{name: "credential for another key", sc: core.BrokerConfig{KeyPair: other, Credential: brokerCred}},
		{name: "credential without a key it matches", sc: core.BrokerConfig{Credential: brokerCred}},
		{name: "role is not broker", sc: core.BrokerConfig{KeyPair: kp, Credential: adminCred}},
		{name: "PeerID is not the credential's subject", peerID: "urn:jxta:chosen",
			sc: core.BrokerConfig{KeyPair: kp, Credential: brokerCred}, want: "is not the credential's subject"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			site, err := dep.StartBroker(broker.Config{Name: "broker-1", Net: net, DB: broker.LocalDB(db), PeerID: tc.peerID}, tc.sc)
			if err == nil {
				site.Close()
				t.Fatal("broker started")
			}
			want := tc.want
			if want == "" {
				sc := tc.sc
				if sc.KeyPair == nil {
					sc.KeyPair = other // StartBroker generates one; any key but the credential's
				}
				sc.Trust, _ = dep.TrustStore()
				_, werr := core.EnableBrokerSecurity(plain, sc)
				if werr == nil {
					t.Fatal("EnableBrokerSecurity accepts this configuration")
				}
				want = werr.Error()
			}
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("refused with %q, want %q", err, want)
			}
			if net.Attached(simnet.NodeID(tc.sc.Credential.Subject)) {
				t.Fatal("the refused broker is still attached to the network")
			}
		})
	}
}

func TestBrokerSiteCloseStopsSweeperAndIsIdempotent(t *testing.T) {
	net, dep, db := setupNet(t)
	site, err := dep.StartBroker(broker.Config{Name: "broker-1", Net: net, DB: broker.LocalDB(db)},
		core.BrokerConfig{LeaseTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sweeping := func() bool {
		buf := make([]byte, 1<<20)
		return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "sweepLeases")
	}
	// A goroutine's dump names sweepLeases only between its first
	// instruction and its last: both ends are waited for.
	waituntil.Must(t, 5*time.Second, sweeping, "no lease sweeper with LeaseTTL set")
	site.Close()
	site.Close()
	waituntil.Must(t, 5*time.Second, func() bool { return !sweeping() }, "lease sweeper still running after Close")
	if net.Attached(simnet.NodeID(site.Broker.PeerID())) {
		t.Fatal("broker still attached after Close")
	}
}

// An alias the PSE keystore refuses leaves nothing behind: the next
// client boots under the alias wanted in the first place.
func TestNewClientRefusedAlias(t *testing.T) {
	net, dep, _ := setupNet(t)
	if sc, err := dep.NewClient(net, "al/ice"); err == nil {
		sc.Close()
		t.Fatal("client booted under an alias PSE refuses")
	}
	sc, err := dep.NewClient(net, "alice")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sc.Close)
	if sc.Identity().Keys.Bits() != keys.DefaultRSABits {
		t.Fatalf("client key is %d bits, the deployment's are %d", sc.Identity().Keys.Bits(), keys.DefaultRSABits)
	}
}

func TestJoinNamesTheFailedStep(t *testing.T) {
	net, dep, db := setupNet(t)
	site, err := dep.StartBroker(broker.Config{Name: "broker-1", Net: net, DB: broker.LocalDB(db)}, core.BrokerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	foreignDep, err := core.NewDeployment("another-admin", 0)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := foreignDep.StartBroker(broker.Config{Name: "broker-1", Net: net, DB: broker.LocalDB(db)}, core.BrokerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(foreign.Close)
	alice, err := dep.NewClient(net, "alice")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(alice.Close)

	err = alice.Join(testCtx(t), foreign.Broker.PeerID(), "pw-alice")
	if !errors.Is(err, core.ErrBrokerNotLegit) || !strings.Contains(err.Error(), "alice secureConnection") {
		t.Fatalf("join at another deployment's broker = %v, want ErrBrokerNotLegit from alice's secureConnection", err)
	}
	err = alice.Join(testCtx(t), site.Broker.PeerID(), "wrong")
	if !errors.Is(err, core.ErrLoginRejected) || !strings.Contains(err.Error(), "alice secureLogin") {
		t.Fatalf("join with a wrong password = %v, want ErrLoginRejected from alice's secureLogin", err)
	}
	if err := alice.Join(testCtx(t), site.Broker.PeerID(), "pw-alice"); err != nil {
		t.Fatal(err)
	}
}
