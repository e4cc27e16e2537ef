// Package core implements the paper's contribution: the security
// extension to the JXTA-Overlay primitives (§4).
//
// The extension adds four secure primitives on top of the unmodified
// middleware machinery:
//
//   - secureConnection — challenge/response authentication of the broker
//     using an administrator-issued credential and the agreement key it
//     states, yielding a fresh session identifier and the key the login
//     is sealed under (§4.2.1);
//   - secureLogin — encrypted, signed, replay-protected end-user
//     authentication that ends with the broker issuing the client a
//     credential (§4.2.2);
//   - secureMsgPeer / secureMsgPeerGroup — stateless sign-then-encrypt
//     messaging whose key distribution rides on XMLdsig-signed pipe
//     advertisements (§4.3).
//
// It also provides the system setup of §4.1, from the administrator's
// key to a running broker and a joined client, once (this file):
//
//	dep, _ := core.NewDeployment("admin", 0) // PK/SK_Adm, Cred_Adm^Adm
//	site, _ := dep.StartBroker(              // SK_Br, Cred_Br^Adm, extension attached
//		broker.Config{Name: "broker-1", Net: net, DB: broker.LocalDB(users)},
//		core.BrokerConfig{RequireSignedAdvs: true})
//	defer site.Close()
//	alice, _ := dep.NewClient(net, "alice") // SK_Cl, provisioned with the anchor
//	defer alice.Close()
//	err := alice.Join(ctx, site.Broker.PeerID(), "alice-pw") // secureConnection + secureLogin
//
// Relay, admission, audit and tracing are optional subsystems with their
// own lifetimes and stay separate calls on site.Broker. As the paper's
// stated further work, the package extends the same envelope to the
// executable primitives (securetask.go).
package core

import (
	"context"
	"fmt"
	"time"

	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
)

// DefaultCredValidity is the default lifetime of issued credentials.
const DefaultCredValidity = 24 * time.Hour

// Deployment is the administrator-side state of §4.1: the key pair
// PK/SK_Adm and the self-signed credential Cred_Adm^Adm that every peer
// is provisioned with as trust anchor.
type Deployment struct {
	kp     *keys.KeyPair
	anchor *cred.Credential
	// bits is the RSA size of every key the deployment generates.
	bits int
}

// NewDeployment generates the administrator key pair and self-signed
// credential. bits=0 selects the default RSA size.
func NewDeployment(name string, bits int) (*Deployment, error) {
	if bits == 0 {
		bits = keys.DefaultRSABits
	}
	kp, err := keys.KeyPairBits(bits)
	if err != nil {
		return nil, err
	}
	anchor, err := cred.SelfSigned(kp, name, 10*365*24*time.Hour)
	if err != nil {
		return nil, err
	}
	return &Deployment{kp: kp, anchor: anchor, bits: bits}, nil
}

// NewDeploymentFromKey builds a deployment around an existing
// administrator key (e.g. loaded from a keystore file).
func NewDeploymentFromKey(kp *keys.KeyPair, name string) (*Deployment, error) {
	anchor, err := cred.SelfSigned(kp, name, 10*365*24*time.Hour)
	if err != nil {
		return nil, err
	}
	return &Deployment{kp: kp, anchor: anchor, bits: kp.Bits()}, nil
}

// Anchor returns Cred_Adm^Adm, the credential provisioned to every peer.
func (d *Deployment) Anchor() *cred.Credential { return d.anchor }

// AdminID returns the administrator's peer identifier.
func (d *Deployment) AdminID() keys.PeerID { return d.anchor.Subject }

// IssueBrokerCredential produces Cred_Br^Adm for a broker's public key:
// only legitimate brokers can prove ownership of one (§4.1).
func (d *Deployment) IssueBrokerCredential(pub *keys.PublicKey, name string, validity time.Duration) (*cred.Credential, error) {
	id, err := keys.CBID(pub)
	if err != nil {
		return nil, err
	}
	return cred.Issue(d.kp, d.anchor.Subject, id, name, cred.RoleBroker, pub, validity)
}

// TrustStore builds a fresh trust store anchored at this deployment's
// administrator credential — what every client and broker boots with.
func (d *Deployment) TrustStore() (*cred.TrustStore, error) {
	return cred.NewTrustStore(d.anchor)
}

// BrokerSite is a running broker with the security extension attached:
// where §4.1 ends on the broker side.
type BrokerSite struct {
	Broker     *broker.Broker
	Security   *BrokerSecurity
	KeyPair    *keys.KeyPair
	Credential *cred.Credential
}

// StartBroker brings a broker up under this deployment. The broker's
// PeerID is the CBID its credential certifies; bc.PeerID is left empty
// (any other value is refused). What sc leaves nil is filled in: a key
// pair of the deployment's size, Cred_Br^Adm issued to it under bc.Name
// for DefaultCredValidity, a trust store anchored at the administrator.
// A caller that passes its own gets EnableBrokerSecurity's checks on them.
func (d *Deployment) StartBroker(bc broker.Config, sc BrokerConfig) (*BrokerSite, error) {
	var err error
	if sc.KeyPair == nil {
		if sc.KeyPair, err = keys.KeyPairBits(d.bits); err != nil {
			return nil, err
		}
	}
	if sc.Credential == nil {
		if sc.Credential, err = d.IssueBrokerCredential(sc.KeyPair.Public(), bc.Name, DefaultCredValidity); err != nil {
			return nil, err
		}
	}
	if sc.Trust == nil {
		if sc.Trust, err = d.TrustStore(); err != nil {
			return nil, err
		}
	}
	if bc.PeerID != "" && bc.PeerID != sc.Credential.Subject {
		return nil, fmt.Errorf("core: broker PeerID %s is not the credential's subject %s", bc.PeerID, sc.Credential.Subject)
	}
	bc.PeerID = sc.Credential.Subject
	b, err := broker.New(bc)
	if err != nil {
		return nil, err
	}
	bs, err := EnableBrokerSecurity(b, sc)
	if err != nil {
		b.Close()
		return nil, err
	}
	return &BrokerSite{Broker: b, Security: bs, KeyPair: sc.KeyPair, Credential: sc.Credential}, nil
}

// Close stops the lease sweeper, then the broker. Safe to call twice.
func (s *BrokerSite) Close() {
	s.Security.Close()
	s.Broker.Close()
}

// NewClient boots a client peer of this deployment on net: a PSE
// identity with a fresh key of the deployment's size, provisioned with
// the administrator's credential as its trust anchor.
func (d *Deployment) NewClient(net endpoint.Transport, alias string, opts ...Option) (*SecureClient, error) {
	trust, err := d.TrustStore()
	if err != nil {
		return nil, err
	}
	cl, err := client.New(net, membership.NewPSE("", d.bits), alias)
	if err != nil {
		return nil, err
	}
	sc, err := NewSecureClient(cl, trust, opts...)
	if err != nil {
		cl.Close()
		return nil, err
	}
	return sc, nil
}

// Join is the client's half of a secure join: secureConnection to the
// broker, then secureLogin with the password.
func (s *SecureClient) Join(ctx context.Context, brokerID keys.PeerID, password string) error {
	if err := s.SecureConnection(ctx, brokerID); err != nil {
		return fmt.Errorf("%s secureConnection: %w", s.Username(), err)
	}
	if err := s.SecureLogin(ctx, password); err != nil {
		return fmt.Errorf("%s secureLogin: %w", s.Username(), err)
	}
	return nil
}
