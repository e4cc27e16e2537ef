// Attack demonstration: runs the paper's §2.3 threat analysis live.
// Every attack is executed twice — once against the original primitives
// (where it succeeds) and once against the secure extension (where it is
// detected and rejected).
//
//	go run ./examples/attacks
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	fmt.Println("=== Threat 1: eavesdropping the login (§2.3) ===")
	if err := eavesdropDemo(ctx); err != nil {
		return err
	}
	fmt.Println("\n=== Threat 2: fake broker via redirected traffic (§2.3) ===")
	if err := fakeBrokerDemo(ctx); err != nil {
		return err
	}
	fmt.Println("\n=== Threat 3: advertisement forgery (§2.3) ===")
	return forgeryDemo(ctx)
}

// plainNetwork stands up the original middleware.
func plainNetwork() (*simnet.Network, *broker.Broker, *userdb.Store, error) {
	net := simnet.NewNetwork(simnet.ProfileLocal)
	db := userdb.NewStore()
	db.Register("alice", "alice-secret", "demo")
	db.Register("mallory", "mallory-pw", "demo")
	br, err := broker.New(broker.Config{
		Name: "broker-1", PeerID: keys.LegacyPeerID("broker-1"), Net: net,
		DB: broker.LocalDB(db),
	})
	if err != nil {
		net.Close()
		return nil, nil, nil, err
	}
	return net, br, db, nil
}

// secureNetwork stands up the extended middleware.
func secureNetwork() (*simnet.Network, *core.BrokerSite, *core.Deployment, error) {
	dep, err := core.NewDeployment("admin", 0)
	if err != nil {
		return nil, nil, nil, err
	}
	db := userdb.NewStore()
	db.Register("alice", "alice-secret", "demo")
	db.Register("mallory", "mallory-pw", "demo")
	net := simnet.NewNetwork(simnet.ProfileLocal)
	site, err := dep.StartBroker(
		broker.Config{Name: "broker-1", Net: net, DB: broker.LocalDB(db), RequireSecureLogin: true},
		core.BrokerConfig{RequireSignedAdvs: true})
	if err != nil {
		net.Close()
		return nil, nil, nil, err
	}
	return net, site, dep, nil
}

func eavesdropDemo(ctx context.Context) error {
	// Original primitives: the password crosses the wire in the clear.
	net, br, _, err := plainNetwork()
	if err != nil {
		return err
	}
	defer net.Close()
	defer br.Close()
	eve := attack.NewEavesdropper(net)
	alice, err := client.New(net, membership.NewNone(), "alice")
	if err != nil {
		return err
	}
	defer alice.Close()
	if err := alice.Connect(ctx, br.PeerID()); err != nil {
		return err
	}
	if err := alice.Login(ctx, "alice-secret"); err != nil {
		return err
	}
	fmt.Printf("  plain login:  eve read the password off the wire: %v\n", eve.SawString("alice-secret"))

	// Secure extension: the login request is sealed to the broker's key.
	snet, sbr, dep, err := secureNetwork()
	if err != nil {
		return err
	}
	defer snet.Close()
	defer sbr.Close()
	eve2 := attack.NewEavesdropper(snet)
	sAlice, err := dep.NewClient(snet, "alice")
	if err != nil {
		return err
	}
	defer sAlice.Close()
	if err := sAlice.Join(ctx, sbr.Broker.PeerID(), "alice-secret"); err != nil {
		return err
	}
	fmt.Printf("  secure login: eve read the password off the wire: %v (frames captured: %d)\n",
		eve2.SawString("alice-secret"), eve2.FrameCount())
	return nil
}

func fakeBrokerDemo(ctx context.Context) error {
	// Original primitives: alice's traffic is redirected to an attacker
	// broker with the same well-known name; her password is harvested.
	net, br, _, err := plainNetwork()
	if err != nil {
		return err
	}
	defer net.Close()
	defer br.Close()
	harvested := make(chan [2]string, 1)
	fake, err := attack.NewFakeBroker(net, "broker-1", keys.LegacyPeerID("evil"), harvested)
	if err != nil {
		return err
	}
	defer fake.Close()
	alice, err := client.New(net, membership.NewNone(), "alice")
	if err != nil {
		return err
	}
	defer alice.Close()
	if err := alice.Connect(ctx, fake.PeerID()); err != nil {
		return err
	}
	if err := alice.Login(ctx, "alice-secret"); err != nil {
		return err
	}
	creds := <-harvested
	fmt.Printf("  plain connect: fake broker harvested %q / %q\n", creds[0], creds[1])

	// Secure extension: secureConnection demands a credential issued by
	// the administrator and a key agreement on a fresh challenge under
	// the agreement key that credential's key states.
	snet, sbr, dep, err := secureNetwork()
	if err != nil {
		return err
	}
	defer snet.Close()
	defer sbr.Close()
	fakeDep, err := core.NewDeployment("evil-admin", 0)
	if err != nil {
		return err
	}
	// The fake administrator can bring up a broker of its own, under the
	// real one's well-known name — but not one alice's anchor certifies.
	fakeSec, err := fakeDep.StartBroker(broker.Config{
		Name: "broker-1", Net: snet,
		DB: broker.AuthenticatorFunc(func(_ context.Context, u, p string) ([]string, error) {
			return []string{"demo"}, nil
		}),
	}, core.BrokerConfig{})
	if err != nil {
		return err
	}
	defer fakeSec.Close()
	sAlice, err := dep.NewClient(snet, "alice")
	if err != nil {
		return err
	}
	defer sAlice.Close()
	err = sAlice.SecureConnection(ctx, fakeSec.Broker.PeerID())
	fmt.Printf("  secureConnection to the fake broker rejected: %v\n", err != nil)
	return nil
}

func forgeryDemo(ctx context.Context) error {
	// Original primitives: mallory (a legitimate user) publishes a
	// presence advertisement claiming alice went offline; the broker
	// accepts and propagates it blindly.
	net, br, _, err := plainNetwork()
	if err != nil {
		return err
	}
	defer net.Close()
	defer br.Close()
	alice, err := client.New(net, membership.NewNone(), "alice")
	if err != nil {
		return err
	}
	defer alice.Close()
	mallory, err := client.New(net, membership.NewNone(), "mallory")
	if err != nil {
		return err
	}
	defer mallory.Close()
	for _, c := range []*client.Client{alice, mallory} {
		if err := c.Connect(ctx, br.PeerID()); err != nil {
			return err
		}
	}
	if err := alice.Login(ctx, "alice-secret"); err != nil {
		return err
	}
	if err := mallory.Login(ctx, "mallory-pw"); err != nil {
		return err
	}
	forged := attack.ForgePresence(alice.PeerID(), "alice", "demo", "offline")
	err = mallory.PublishAdvDoc(ctx, forged)
	fmt.Printf("  plain broker accepted mallory's forged presence for alice: %v\n", err == nil)

	// Secure extension: advertisements must be signed by their owner.
	snet, sbr, dep, err := secureNetwork()
	if err != nil {
		return err
	}
	defer snet.Close()
	defer sbr.Close()
	sAlice, err := dep.NewClient(snet, "alice")
	if err != nil {
		return err
	}
	defer sAlice.Close()
	sMallory, err := dep.NewClient(snet, "mallory")
	if err != nil {
		return err
	}
	defer sMallory.Close()
	if err := sAlice.Join(ctx, sbr.Broker.PeerID(), "alice-secret"); err != nil {
		return err
	}
	if err := sMallory.Join(ctx, sbr.Broker.PeerID(), "mallory-pw"); err != nil {
		return err
	}
	forged2 := attack.ForgePresence(sAlice.PeerID(), "alice", "demo", "offline")
	err = sMallory.PublishAdvDoc(ctx, forged2)
	fmt.Printf("  secure broker rejected the forged presence: %v\n", err != nil)
	return nil
}
