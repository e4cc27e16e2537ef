package main

import (
	"crypto/rsa"
	"crypto/x509"
	"embed"
	"encoding/pem"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
)

// The committed identities. Key generation takes 10–300 ms per
// RSA-1024 key and that spread went straight into setup_s in an
// earlier attempt, so no run generates a key: every entity of the
// benchmark deployment is one of these files.
const (
	fixturePeers   = 96
	fixtureKeyBits = 1024
	fixtureNotice  = "BENCHMARK-ONLY key fixture of cmd/perf. The private key below is public: " +
		"only the in-process deployment the benchmark builds around testdata/keys/admin.pem ever trusts it.\n"
)

//go:embed testdata/keys
var keyFS embed.FS

func peerAlias(i int) string { return fmt.Sprintf("peer%03d", i) }

func peerPassword(alias string) string { return "pw-" + alias }

func readFixture(name string) ([]byte, error) {
	data, err := keyFS.ReadFile("testdata/keys/" + name + ".pem")
	if err != nil {
		return nil, fmt.Errorf("fixture %s: %w (regenerate with -gen-keys)", name, err)
	}
	return data, nil
}

// loadKey parses one fixture through the program's own PEM reader.
func loadKey(name string) (*keys.KeyPair, error) {
	data, err := readFixture(name)
	if err != nil {
		return nil, err
	}
	kp, err := keys.ParseKeyPairPEM(data)
	if err != nil {
		return nil, fmt.Errorf("fixture %s: %w", name, err)
	}
	return kp, nil
}

// loadCanaryKey parses the canary fixture with the standard library
// alone: the tick must not move when internal/keys does.
func loadCanaryKey() (*rsa.PrivateKey, error) {
	data, err := readFixture("canary")
	if err != nil {
		return nil, err
	}
	block, _ := pem.Decode(data)
	if block == nil {
		return nil, errors.New("fixture canary: no PEM block")
	}
	key, err := x509.ParsePKCS8PrivateKey(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("fixture canary: %w", err)
	}
	priv, ok := key.(*rsa.PrivateKey)
	if !ok {
		return nil, errors.New("fixture canary: not an RSA key")
	}
	return priv, nil
}

// genKeys regenerates the whole fixture set into dir.
func genKeys(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := []string{"admin", "broker", "canary"}
	for i := 0; i < fixturePeers; i++ {
		names = append(names, peerAlias(i))
	}
	for _, name := range names {
		kp, err := keys.KeyPairBits(fixtureKeyBits)
		if err != nil {
			return err
		}
		pemBytes, err := kp.MarshalPEM()
		if err != nil {
			return err
		}
		// pem.Decode skips text before the BEGIN line, so the notice
		// travels with every key without changing how it parses.
		out := append([]byte(fixtureNotice), pemBytes...)
		if err := os.WriteFile(filepath.Join(dir, name+".pem"), out, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// fixedMembership is a membership.Service around one fixture key: the
// identity a PSE keystore would load, without the keystore's writes.
type fixedMembership struct {
	id *membership.Identity
}

func newFixedMembership(alias string, kp *keys.KeyPair) (*fixedMembership, error) {
	pid, err := keys.CBID(kp.Public())
	if err != nil {
		return nil, err
	}
	return &fixedMembership{id: &membership.Identity{PeerID: pid, Name: alias, Keys: kp}}, nil
}

func (m *fixedMembership) Join(alias string) (*membership.Identity, error) {
	if alias != m.id.Name {
		return nil, fmt.Errorf("fixture membership holds %q, not %q", m.id.Name, alias)
	}
	return m.id, nil
}

func (m *fixedMembership) Current() *membership.Identity { return m.id }

func (m *fixedMembership) Resign() {}
