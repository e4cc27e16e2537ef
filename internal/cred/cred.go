// Package cred implements the credential scheme of the security
// extension (paper §4.1): credentials binding a peer identifier and human
// name to a public key, signed by an issuer. A credential is its bytes —
// one binary form, written once when it is issued and read back unchanged:
//
//	KindCredential ‖ subject ‖ name ‖ role u8 ‖ issuer ‖ PKIX DER key ‖ agreement share (empty or 32 B) ‖ not-before ‖ not-after ‖ signature
//
// Subject, name, issuer, key, share and signature are u16-length fields and
// the times i64 seconds ‖ u32 nanoseconds (proto.AppendField and
// proto.AppendTime, the signed-request codec's). The issuer signs
// credentialLabel and every byte in front of the signature's length.
//
// Three kinds of credentials exist in a JXTA-Overlay deployment:
//
//   - the administrator's self-signed credential Cred_Adm^Adm, the trust
//     anchor every peer is provisioned with;
//   - broker credentials Cred_Br^Adm, issued by the administrator, which
//     secureConnection uses to tell legitimate brokers from fakes;
//   - client credentials Cred_Cl^Br, issued by a broker at secureLogin,
//     which clients use as proof of identity until expiration.
package cred

import (
	"bytes"
	"encoding/base64"
	"errors"
	"slices"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/xmldoc"
)

// Role describes what kind of entity a credential certifies.
type Role string

// Credential roles.
const (
	RoleAdmin    Role = "admin"
	RoleBroker   Role = "broker"
	RoleClient   Role = "client"
	RoleDatabase Role = "database"
)

// roles is each role's byte on the wire, less one.
var roles = [...]Role{RoleAdmin, RoleBroker, RoleClient, RoleDatabase}

// ElementName is the XML element an advertisement's KeyInfo carries a
// credential in, its bytes in base64.
const ElementName = "Credential"

// credentialLabel separates a credential signature from every other one.
const credentialLabel = "jxta-overlay/credential/v1"

// Errors returned by parsing and verification.
var (
	ErrMalformed    = errors.New("cred: malformed credential")
	ErrBadSignature = errors.New("cred: credential signature invalid")
	ErrExpired      = errors.New("cred: credential expired or not yet valid")
	ErrUntrusted    = errors.New("cred: issuer not trusted")
)

// Credential is the paper's Cred_i^j: subject i's identity and public
// key, vouched for by issuer j's signature.
type Credential struct {
	// Subject is the peer ID the credential certifies (a CBID for
	// secure peers).
	Subject keys.PeerID
	// SubjectName is the human name: the end-user's username for client
	// credentials, a deployment name for brokers and the administrator.
	SubjectName string
	// Role states what the subject is allowed to act as.
	Role Role
	// Issuer is the peer ID of the signing entity.
	Issuer keys.PeerID
	// Key is the subject's public key.
	Key *keys.PublicKey
	// NotBefore/NotAfter bound the validity window.
	NotBefore time.Time
	NotAfter  time.Time
	// Signature is the issuer's signature over the credential's bytes in
	// front of it.
	Signature []byte

	// raw is the credential's bytes, from Issue or Parse. Credentials are
	// immutable once built, so it never goes stale; a value built or
	// edited by hand (Clone) has none and is encoded from its fields.
	raw []byte
}

// Bytes returns the credential's binary form, signature included. The
// bytes are shared: callers must not modify them.
func (c *Credential) Bytes() ([]byte, error) {
	if c.raw != nil {
		return c.raw, nil
	}
	body, err := c.appendBody(nil)
	if err != nil {
		return nil, err
	}
	if len(c.Signature) > proto.MaxField {
		return nil, proto.ErrFieldTooLong
	}
	return proto.AppendField(body, c.Signature), nil
}

// appendBody appends what the signature covers, less the label: every
// field in front of the signature.
func (c *Credential) appendBody(dst []byte) ([]byte, error) {
	if c.Key == nil {
		return nil, errors.New("cred: credential has no key")
	}
	der, err := c.Key.MarshalDER()
	if err != nil {
		return nil, err
	}
	role := slices.Index(roles[:], c.Role) + 1
	if role == 0 {
		return nil, errors.New("cred: unknown role " + string(c.Role))
	}
	if max(len(c.Subject), len(c.SubjectName), len(c.Issuer), len(der)) > proto.MaxField {
		return nil, proto.ErrFieldTooLong
	}
	var share []byte
	if s, ok := c.Key.AgreementShare(); ok {
		share = s[:]
	}
	dst = proto.AppendField(append(dst, byte(proto.KindCredential)), c.Subject)
	dst = append(proto.AppendField(dst, c.SubjectName), byte(role))
	dst = proto.AppendField(proto.AppendField(proto.AppendField(dst, c.Issuer), der), share)
	return proto.AppendTime(proto.AppendTime(dst, c.NotBefore), c.NotAfter), nil
}

// signed returns what the issuer's signature covers: the label and the
// credential's bytes in front of the signature's length.
func (c *Credential) signed() ([]byte, error) {
	if c.raw != nil {
		return append([]byte(credentialLabel), c.raw[:len(c.raw)-2-len(c.Signature)]...), nil
	}
	return c.appendBody([]byte(credentialLabel))
}

// Document is the credential as an advertisement's KeyInfo carries it: a
// Credential element holding its bytes in base64.
func (c *Credential) Document() (*xmldoc.Element, error) {
	raw, err := c.Bytes()
	if err != nil {
		return nil, err
	}
	return xmldoc.New(ElementName, base64.StdEncoding.EncodeToString(raw)), nil
}

// Clone returns a copy of the credential with no bytes of its own. Use it
// to derive modified variants (re-issuing tools, tests); Credential
// values must never be copied or mutated directly once in use.
func (c *Credential) Clone() *Credential {
	return &Credential{
		Subject:     c.Subject,
		SubjectName: c.SubjectName,
		Role:        c.Role,
		Issuer:      c.Issuer,
		Key:         c.Key,
		NotBefore:   c.NotBefore,
		NotAfter:    c.NotAfter,
		Signature:   bytes.Clone(c.Signature),
	}
}

// Parse reads a credential from a copy of raw, which must be one in the
// form Bytes writes, whole: the kind byte, every field, a known role, a
// share of keys.ShareSize bytes or none, times in their one encoding and
// nothing behind the signature — so that a credential that parses is the
// bytes it was read from. The signature is not verified; call Verify or
// use a TrustStore.
func Parse(raw []byte) (*Credential, error) {
	if len(raw) == 0 || raw[0] != byte(proto.KindCredential) {
		return nil, ErrMalformed
	}
	raw = bytes.Clone(raw)
	in := proto.NewReader(raw[1:])
	subject, name, role, issuer := in.Field(), in.Field(), in.Uint(1), in.Field()
	der, share := in.Field(), in.Field()
	c := &Credential{NotBefore: in.Time(), NotAfter: in.Time(), Signature: in.Field(), raw: raw}
	if !in.Done() || len(c.Signature) == 0 || role == 0 || int(role) > len(roles) ||
		(len(share) != 0 && len(share) != keys.ShareSize) {
		return nil, ErrMalformed
	}
	key, err := keys.ParsePublicDER(der)
	if err != nil {
		return nil, ErrMalformed
	}
	if len(share) != 0 {
		key = key.WithShare((*[keys.ShareSize]byte)(share))
	}
	c.Subject, c.SubjectName, c.Role = keys.PeerID(subject), string(name), roles[role-1]
	c.Issuer, c.Key = keys.PeerID(issuer), key
	return c, nil
}

// AppendChain appends a credential chain as its credentials' bytes, each
// behind its u16 length: the form a keystore and an audit checkpoint keep
// a chain in.
func AppendChain(dst []byte, chain ...*Credential) ([]byte, error) {
	for _, c := range chain {
		raw, err := c.Bytes()
		if err != nil {
			return nil, err
		}
		if len(raw) > proto.MaxField {
			return nil, proto.ErrFieldTooLong
		}
		dst = proto.AppendField(dst, raw)
	}
	return dst, nil
}

// ParseChain reads what AppendChain wrote: at least one credential, and
// nothing else.
func ParseChain(raw []byte) ([]*Credential, error) {
	var chain []*Credential
	for in := proto.NewReader(raw); in.Len() > 0; {
		c, err := Parse(in.Field())
		if err != nil {
			return nil, err
		}
		chain = append(chain, c)
	}
	if len(chain) == 0 {
		return nil, ErrMalformed
	}
	return chain, nil
}

// Issue creates a credential for subject signed by the issuer's key,
// valid from the wall clock's now: for an issuer that is no node (the
// administrator, tooling). A broker issues at its own time, with IssueAt.
func Issue(issuer *keys.KeyPair, issuerID keys.PeerID, subject keys.PeerID, subjectName string, role Role, subjectKey *keys.PublicKey, validity time.Duration) (*Credential, error) {
	return IssueAt(time.Now(), issuer, issuerID, subject, subjectName, role, subjectKey, validity)
}

// IssueAt is Issue at the issuer's time now. A client or database
// credential certifies the agreement key subjectKey carries beside the RSA
// key: envelopes, rounds and database requests are sealed to it. An admin
// or broker credential certifies the RSA key alone: nothing is sealed to
// the administrator, and a broker signs its agreement key in its
// secureConnection answer instead, because its credential rides in the
// chain of every advertisement its clients sign.
func IssueAt(now time.Time, issuer *keys.KeyPair, issuerID keys.PeerID, subject keys.PeerID, subjectName string, role Role, subjectKey *keys.PublicKey, validity time.Duration) (*Credential, error) {
	now = now.UTC()
	if (role == RoleAdmin || role == RoleBroker) && subjectKey != nil {
		subjectKey = subjectKey.WithShare(nil)
	}
	c := &Credential{
		Subject:     subject,
		SubjectName: subjectName,
		Role:        role,
		Issuer:      issuerID,
		Key:         subjectKey,
		NotBefore:   now.Add(-time.Minute), // clock-skew grace
		NotAfter:    now.Add(validity),
	}
	signed, err := c.signed()
	if err != nil {
		return nil, err
	}
	// Nanosecond times make re-issued credentials differ even within the
	// same second (RSASSA-PKCS1-v1_5 is deterministic).
	sig, err := issuer.Sign(signed)
	if err != nil {
		return nil, err
	}
	if len(sig) > proto.MaxField {
		return nil, proto.ErrFieldTooLong
	}
	c.raw = proto.AppendField(bytes.Clone(signed[len(credentialLabel):]), sig)
	c.Signature = c.raw[len(c.raw)-len(sig):]
	return c, nil
}

// SelfSigned creates the administrator's trust-anchor credential
// Cred_Adm^Adm.
func SelfSigned(kp *keys.KeyPair, name string, validity time.Duration) (*Credential, error) {
	id, err := keys.CBID(kp.Public())
	if err != nil {
		return nil, err
	}
	return Issue(kp, id, id, name, RoleAdmin, kp.Public(), validity)
}

// Verify checks the credential signature against the issuer's public key,
// then the validity window against now: a credential the key did not sign
// is ErrBadSignature whatever its window says, and only a genuine one can
// read ErrExpired.
func (c *Credential) Verify(issuerKey *keys.PublicKey, now time.Time) error {
	signed, err := c.signed()
	if err != nil {
		return err
	}
	if err := issuerKey.Verify(signed, c.Signature); err != nil {
		return ErrBadSignature
	}
	if now.Before(c.NotBefore) || now.After(c.NotAfter) {
		return ErrExpired
	}
	return nil
}

// VerifyCBID checks the crypto-based binding between the credential's
// subject ID and its key. Only meaningful for CBID subjects.
func (c *Credential) VerifyCBID() error {
	return keys.VerifyCBID(c.Subject, c.Key)
}

// Equal reports whether two credentials are the same bytes.
func (c *Credential) Equal(o *Credential) bool {
	if c == nil || o == nil {
		return c == o
	}
	a, err1 := c.Bytes()
	b, err2 := o.Bytes()
	return err1 == nil && err2 == nil && bytes.Equal(a, b)
}
