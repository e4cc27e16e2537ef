// Package membership implements JXTA's membership service abstraction —
// the core service that manages identity within a peer group.
//
// The paper's §3 criticism of stock JXTA security is that it forces the
// Personal Secure Environment (PSE) implementation, with Java keystores
// as the only credential store. This package keeps the service
// pluggable: None reproduces the original JXTA-Overlay behaviour (plain
// username-derived identities, no keys), while PSE provides a
// keystore-backed identity with crypto-based identifiers and
// broker-issued credentials — without constraining the rest of the
// architecture.
package membership

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/keys"
)

// Identity is the local peer's established identity.
type Identity struct {
	// PeerID is the overlay identifier (a CBID when keys exist).
	PeerID keys.PeerID
	// Name is the human alias (the end-user's username).
	Name string
	// Keys holds the key pair; nil for plain (None) identities.
	Keys *keys.KeyPair
	// Credential is the broker-issued credential, once obtained.
	Credential *cred.Credential
	// Chain holds the credential plus intermediates up to the anchor.
	Chain []*cred.Credential
}

// Secure reports whether the identity can sign and decrypt.
func (id *Identity) Secure() bool { return id != nil && id.Keys != nil }

// Service establishes and tracks the local identity.
type Service interface {
	// Join establishes an identity for the given alias.
	Join(alias string) (*Identity, error)
	// Current returns the established identity, or nil.
	Current() *Identity
	// Resign forgets the current identity.
	Resign()
}

// ErrNotJoined is returned when an identity is required but absent.
var ErrNotJoined = errors.New("membership: no identity established")

// --- None membership (original JXTA-Overlay behaviour) ---

// None derives a peer ID from the alias and holds no keys: the
// configuration the paper attacks.
type None struct {
	mu sync.Mutex
	id *Identity
}

// NewNone returns the plain membership service.
func NewNone() *None { return &None{} }

// Join implements Service.
func (n *None) Join(alias string) (*Identity, error) {
	if alias == "" {
		return nil, errors.New("membership: empty alias")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.id = &Identity{PeerID: keys.LegacyPeerID(alias), Name: alias}
	return n.id, nil
}

// Current implements Service.
func (n *None) Current() *Identity {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.id
}

// Resign implements Service.
func (n *None) Resign() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.id = nil
}

// --- PSE membership (keystore-backed) ---

// PSE is the keystore-backed membership service. Key pairs are created
// at first join (paper §4.1: "at boot time, a key pair is created") and
// optionally persisted to a directory; broker-issued credentials are
// attached after secureLogin.
type PSE struct {
	mu   sync.Mutex
	dir  string // "" = memory only
	bits int
	id   *Identity
	// store caches identities per alias within the process.
	store map[string]*Identity
}

// NewPSE creates a PSE service. dir may be empty for an in-memory
// keystore; bits selects the RSA key size (0 = default).
func NewPSE(dir string, bits int) *PSE {
	if bits == 0 {
		bits = keys.DefaultRSABits
	}
	return &PSE{dir: dir, bits: bits, store: make(map[string]*Identity)}
}

// Join implements Service: it loads the alias's key pair from the
// keystore or creates and persists a fresh one, and derives the CBID.
func (p *PSE) Join(alias string) (*Identity, error) {
	if alias == "" || strings.ContainsAny(alias, "/\\") {
		return nil, fmt.Errorf("membership: invalid alias %q", alias)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if id, ok := p.store[alias]; ok {
		p.id = id
		return id, nil
	}
	kp, err := p.loadKey(alias)
	if err != nil {
		return nil, err
	}
	if kp == nil {
		kp, err = keys.KeyPairBits(p.bits)
		if err != nil {
			return nil, err
		}
		if err := p.saveKey(alias, kp); err != nil {
			return nil, err
		}
	}
	pid, err := keys.CBID(kp.Public())
	if err != nil {
		return nil, err
	}
	id := &Identity{PeerID: pid, Name: alias, Keys: kp}
	if c, chain, err := p.loadCred(alias); err == nil && c != nil {
		id.Credential = c
		id.Chain = chain
	}
	p.store[alias] = id
	p.id = id
	return id, nil
}

// Current implements Service.
func (p *PSE) Current() *Identity {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.id
}

// Resign implements Service. The keystore entry is kept; only the active
// identity is cleared.
func (p *PSE) Resign() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.id = nil
}

// SetCredential attaches a broker-issued credential (and its chain) to
// the current identity and persists it.
func (p *PSE) SetCredential(c *cred.Credential, chain ...*cred.Credential) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.id == nil {
		return ErrNotJoined
	}
	if !c.Key.Equal(p.id.Keys.Public()) {
		return errors.New("membership: credential key does not match identity key")
	}
	p.id.Credential = c
	p.id.Chain = append([]*cred.Credential{c}, chain...)
	return p.saveCred(p.id.Name, p.id.Chain)
}

func (p *PSE) keyPath(alias string) string  { return filepath.Join(p.dir, alias+".key.pem") }
func (p *PSE) credPath(alias string) string { return filepath.Join(p.dir, alias+".cred") }

func (p *PSE) loadKey(alias string) (*keys.KeyPair, error) {
	if p.dir == "" {
		return nil, nil
	}
	data, err := os.ReadFile(p.keyPath(alias))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("membership: keystore read: %w", err)
	}
	return keys.ParseKeyPairPEM(data)
}

func (p *PSE) saveKey(alias string, kp *keys.KeyPair) error {
	if p.dir == "" {
		return nil
	}
	if err := os.MkdirAll(p.dir, 0o700); err != nil {
		return fmt.Errorf("membership: keystore dir: %w", err)
	}
	pemBytes, err := kp.MarshalPEM()
	if err != nil {
		return err
	}
	return os.WriteFile(p.keyPath(alias), pemBytes, 0o600)
}

func (p *PSE) loadCred(alias string) (*cred.Credential, []*cred.Credential, error) {
	if p.dir == "" {
		return nil, nil, nil
	}
	data, err := os.ReadFile(p.credPath(alias))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	chain, err := cred.ParseChain(data) // as saveCred wrote it
	if err != nil {
		return nil, nil, err
	}
	return chain[0], chain, nil
}

func (p *PSE) saveCred(alias string, chain []*cred.Credential) error {
	if p.dir == "" {
		return nil
	}
	data, err := cred.AppendChain(nil, chain...)
	if err != nil {
		return err
	}
	return os.WriteFile(p.credPath(alias), data, 0o600)
}
