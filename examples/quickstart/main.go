// Quickstart: stand up a secure JXTA-Overlay deployment and exchange a
// protected message between two peers.
//
// It walks through the paper's whole §4 flow in order: system setup
// (administrator, broker credential), secureConnection (broker
// legitimacy check), secureLogin (credential issuance), and
// secureMsgPeer (sign-then-encrypt messaging over signed pipe
// advertisements).
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// --- 1. System setup (paper §4.1) -------------------------------
	// The administrator generates PK/SK_Adm and the self-signed
	// credential every peer is provisioned with as trust anchor.
	net := simnet.NewNetwork(simnet.ProfileLAN)
	defer net.Close()
	dep, err := core.NewDeployment("quickstart-admin", 0)
	if err != nil {
		return err
	}
	fmt.Println("1. administrator ready:", dep.AdminID())

	// The central database holds the end users (registered out of band).
	db := userdb.NewStore()
	db.Register("alice", "alice-pw", "demo")
	db.Register("bob", "bob-pw", "demo")

	// The broker gets a key pair and an administrator-issued credential,
	// and comes up with the security extension attached.
	site, err := dep.StartBroker(broker.Config{
		Name:               "broker-1",
		Net:                net,
		DB:                 broker.LocalDB(db),
		RequireSecureLogin: true, // plaintext login is turned off
	}, core.BrokerConfig{
		RequireSignedAdvs: true, // unsigned advertisements are rejected
	})
	if err != nil {
		return err
	}
	defer site.Close()
	br := site.Broker
	fmt.Println("2. broker credentialed and up:", br.PeerID())

	// --- 2. Client boot ----------------------------------------------
	// Each client uses PSE membership: a key pair is created at boot and
	// the peer ID is the key's crypto-based identifier (CBID).
	alice, err := dep.NewClient(net, "alice")
	if err != nil {
		return err
	}
	defer alice.Close()
	bob, err := dep.NewClient(net, "bob")
	if err != nil {
		return err
	}
	defer bob.Close()

	// Steps 3 and 4 are what (*SecureClient).Join does in one call; they
	// are spelled out here to show the state between them.
	// --- 3. secureConnection (§4.2.1) --------------------------------
	// Challenge/response proves the broker holds the agreement key its
	// administrator-issued credential's key states, before any password
	// is typed.
	for _, p := range []*core.SecureClient{alice, bob} {
		if err := p.SecureConnection(ctx, br.PeerID()); err != nil {
			return err
		}
		fmt.Printf("3. %s verified broker %q (sid=%s...)\n",
			p.Username(), p.BrokerCredential().SubjectName, p.Sid()[:8])
	}

	// --- 4. secureLogin (§4.2.2) --------------------------------------
	// The signed, encrypted, replay-protected login; the broker answers
	// with a credential the peer uses as proof of identity.
	if err := alice.SecureLogin(ctx, "alice-pw"); err != nil {
		return err
	}
	if err := bob.SecureLogin(ctx, "bob-pw"); err != nil {
		return err
	}
	fmt.Printf("4. alice holds credential issued by %q, valid until %s\n",
		alice.Identity().Credential.Issuer[:24]+"...",
		alice.Identity().Credential.NotAfter.Format(time.RFC3339))

	// --- 5. secureMsgPeer (§4.3.1) -------------------------------------
	// Bob subscribes to secure-message events; alice sends E_PK(m, S(m)).
	received := make(chan events.Event, 1)
	bob.Bus().Subscribe(events.SecureMessage, func(e events.Event) { received <- e })

	if err := alice.SecureMsgPeer(ctx, bob.PeerID(), "demo", "hello over an authenticated, private channel"); err != nil {
		return err
	}
	select {
	case e := <-received:
		fmt.Printf("5. bob received %q\n   from user %q (authenticated=%s, mode=%s)\n",
			e.Data, e.Attr("user"), e.Attr("authenticated"), e.Attr("mode"))
	case <-ctx.Done():
		return ctx.Err()
	}

	// --- 6. secureMsgPeerGroup ------------------------------------------
	sent, err := bob.SecureMsgPeerGroup(ctx, "demo", "group ack")
	if err != nil {
		return err
	}
	fmt.Printf("6. bob acked the whole group (%d peer(s))\n", sent)
	return nil
}
