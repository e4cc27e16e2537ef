package keys

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

// PeerID identifies a peer on the overlay. Secure peers use crypto-based
// identifiers (CBIDs): the ID is derived from the peer's public key, so
// possession of the matching private key proves ownership of the ID
// without any extra infrastructure (Montenegro & Castelluccia [20]).
type PeerID string

// CBIDPrefix is the URN prefix of crypto-based peer identifiers.
const CBIDPrefix = "urn:jxta:cbid-"

// cbidBytes is how much of the key fingerprint the ID keeps (hex-encoded).
const cbidBytes = 16

// CBID derives the crypto-based identifier for a public key.
func CBID(pub *PublicKey) (PeerID, error) {
	fp, err := pub.Fingerprint()
	if err != nil {
		return "", err
	}
	var id [len(CBIDPrefix) + 2*cbidBytes]byte
	n := copy(id[:], CBIDPrefix)
	hex.Encode(id[n:], fp[:cbidBytes])
	return PeerID(id[:]), nil
}

// ErrCBIDMismatch is returned when a claimed peer ID does not match the
// presented public key — the check the broker performs at secureLogin
// step 7 and receivers perform on signed advertisements.
var ErrCBIDMismatch = errors.New("keys: peer ID does not match public key (CBID check failed)")

// VerifyCBID checks the binding between a claimed peer ID and a public
// key. Non-CBID identifiers (plain peers) fail with a descriptive error.
func VerifyCBID(id PeerID, pub *PublicKey) error {
	if !strings.HasPrefix(string(id), CBIDPrefix) {
		return fmt.Errorf("keys: %q is not a crypto-based identifier", id)
	}
	want, err := CBID(pub)
	if err != nil {
		return err
	}
	if want != id {
		return ErrCBIDMismatch
	}
	return nil
}

// IsCBID reports whether the identifier is crypto-based.
func IsCBID(id PeerID) bool { return strings.HasPrefix(string(id), CBIDPrefix) }

// LegacyPeerID builds a non-crypto identifier from a human name; it is
// what the original, insecure JXTA-Overlay deployment used.
func LegacyPeerID(name string) PeerID {
	sum := sha256.Sum256([]byte("legacy:" + name))
	return PeerID("urn:jxta:uuid-" + hex.EncodeToString(sum[:cbidBytes]))
}
