// Package cred implements the credential scheme of the security
// extension (paper §4.1): XML credentials binding a peer identifier and
// human name to a public key, signed by an issuer.
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
	"fmt"
	"sync/atomic"
	"time"

	"jxtaoverlay/internal/keys"
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

// ElementName is the XML element name of serialized credentials.
const ElementName = "Credential"

// Errors returned by verification.
var (
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
	// Signature is the issuer's signature over the canonical body.
	Signature []byte

	// memo caches the canonical body. Credentials are immutable once
	// built by Issue or Parse (Issue fills Signature in after signing,
	// which the body excludes), so the memo never goes stale; code
	// constructing Credential values by hand must not mutate identity
	// fields afterwards.
	memo atomic.Pointer[[]byte]
}

// body returns the canonical signing input: the credential document
// without its Signature child.
func (c *Credential) body() ([]byte, error) {
	if m := c.memo.Load(); m != nil {
		return *m, nil
	}
	doc, err := c.document(false)
	if err != nil {
		return nil, err
	}
	body := doc.Canonical()
	c.memo.Store(&body)
	return body, nil
}

func (c *Credential) document(withSig bool) (*xmldoc.Element, error) {
	if c.Key == nil {
		return nil, errors.New("cred: credential has no key")
	}
	keyB64, err := c.Key.MarshalBase64()
	if err != nil {
		return nil, err
	}
	doc := xmldoc.New(ElementName, "")
	doc.AddText("Subject", string(c.Subject))
	doc.AddText("SubjectName", c.SubjectName)
	doc.AddText("Role", string(c.Role))
	doc.AddText("Issuer", string(c.Issuer))
	doc.AddText("Key", keyB64)
	if share := c.Key.ShareBase64(); share != "" {
		// The subject's X25519 agreement key, certified with the rest.
		doc.AddText("Agree", share)
	}
	// Nanosecond precision: besides fidelity, it guarantees re-issued
	// credentials differ even within the same second (renewal relies on
	// this; RSASSA-PKCS1-v1_5 is deterministic).
	doc.AddText("NotBefore", c.NotBefore.UTC().Format(time.RFC3339Nano))
	doc.AddText("NotAfter", c.NotAfter.UTC().Format(time.RFC3339Nano))
	if withSig {
		doc.AddText("Signature", base64.StdEncoding.EncodeToString(c.Signature))
	}
	return doc, nil
}

// Document serializes the credential, signature included.
func (c *Credential) Document() (*xmldoc.Element, error) {
	return c.document(true)
}

// Clone returns a copy of the credential with no memoized state. Use it
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
		Signature:   append([]byte(nil), c.Signature...),
	}
}

// Parse reads a credential from its XML form, which must be the form
// Document writes: the fields in its order, each once and text only, with
// base64 and times in the spelling it gives them — so that a credential
// that parses serializes back to the bytes it was read from. The Agree
// field is optional: admin and broker credentials carry none. The
// signature is not verified; call Verify or use a TrustStore.
func Parse(doc *xmldoc.Element) (*Credential, error) {
	if doc == nil || doc.Name != ElementName || len(doc.Attrs) != 0 || doc.Text != "" {
		return nil, fmt.Errorf("cred: not a %s element", ElementName)
	}
	fields := doc.Children
	next := func(name string) (string, bool) {
		if len(fields) == 0 || fields[0].Name != name {
			return "", false
		}
		f := fields[0]
		fields = fields[1:]
		return f.Text, len(f.Attrs) == 0 && len(f.Children) == 0
	}
	malformed := func(field string) error { return fmt.Errorf("cred: missing or malformed %s", field) }
	var c Credential
	var text, keyB64, share string
	var ok bool
	if text, ok = next("Subject"); !ok {
		return nil, malformed("Subject")
	}
	c.Subject = keys.PeerID(text)
	if c.SubjectName, ok = next("SubjectName"); !ok {
		return nil, malformed("SubjectName")
	}
	if text, ok = next("Role"); !ok {
		return nil, malformed("Role")
	}
	c.Role = Role(text)
	if text, ok = next("Issuer"); !ok {
		return nil, malformed("Issuer")
	}
	c.Issuer = keys.PeerID(text)
	if keyB64, ok = next("Key"); !ok {
		return nil, malformed("Key")
	}
	if len(fields) > 0 && fields[0].Name == "Agree" {
		if share, ok = next("Agree"); !ok || share == "" {
			return nil, malformed("Agree")
		}
	}
	key, err := keys.ParsePublicBase64(keyB64, share)
	if err != nil {
		return nil, fmt.Errorf("cred: key: %w", err)
	}
	c.Key = key
	if text, ok = next("NotBefore"); !ok {
		return nil, malformed("NotBefore")
	}
	if c.NotBefore, ok = parseTime(text); !ok {
		return nil, malformed("NotBefore")
	}
	if text, ok = next("NotAfter"); !ok {
		return nil, malformed("NotAfter")
	}
	if c.NotAfter, ok = parseTime(text); !ok {
		return nil, malformed("NotAfter")
	}
	if text, ok = next("Signature"); !ok || len(fields) != 0 {
		return nil, malformed("Signature")
	}
	if c.Signature, err = strictBase64.DecodeString(text); err != nil ||
		len(c.Signature) == 0 || base64.StdEncoding.EncodedLen(len(c.Signature)) != len(text) {
		return nil, malformed("Signature")
	}
	return &c, nil
}

// ParseBytes reads a credential from the bytes of Document's canonical form,
// parsing a copy: a credential is views of what it was parsed from.
func ParseBytes(raw []byte) (*Credential, error) {
	doc, err := xmldoc.ParseCanonical(bytes.Clone(raw))
	if err != nil {
		return nil, err
	}
	return Parse(doc)
}

// strictBase64 decodes only the one spelling EncodeToString writes of
// each byte string (a length check rules out the newlines it skips).
var strictBase64 = base64.StdEncoding.Strict()

// parseTime reads a time as document writes it, and nothing that merely
// denotes the same instant.
func parseTime(s string) (time.Time, bool) {
	t, err := time.Parse(time.RFC3339Nano, s)
	var buf [64]byte
	return t, err == nil && string(t.UTC().AppendFormat(buf[:0], time.RFC3339Nano)) == s
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
	body, err := c.body()
	if err != nil {
		return nil, err
	}
	sig, err := issuer.Sign(body)
	if err != nil {
		return nil, err
	}
	c.Signature = sig
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

// Verify checks the credential signature against the issuer's public key
// and the validity window against now.
func (c *Credential) Verify(issuerKey *keys.PublicKey, now time.Time) error {
	if now.Before(c.NotBefore) || now.After(c.NotAfter) {
		return ErrExpired
	}
	body, err := c.body()
	if err != nil {
		return err
	}
	if err := issuerKey.Verify(body, c.Signature); err != nil {
		return ErrBadSignature
	}
	return nil
}

// VerifyCBID checks the crypto-based binding between the credential's
// subject ID and its key. Only meaningful for CBID subjects.
func (c *Credential) VerifyCBID() error {
	return keys.VerifyCBID(c.Subject, c.Key)
}

// Equal reports whether two credentials are byte-identical in canonical
// form.
func (c *Credential) Equal(o *Credential) bool {
	if c == nil || o == nil {
		return c == o
	}
	a, err1 := c.Document()
	b, err2 := o.Document()
	if err1 != nil || err2 != nil {
		return false
	}
	return a.Equal(b)
}
