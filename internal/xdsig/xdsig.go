// Package xdsig implements the XMLdsig-style enveloped signatures the
// security extension uses to protect advertisements (paper §4.1, method
// of Arnedo-Moreno & Herrera-Joancomartí [15]).
//
// In contrast with stock JXTA "signed advertisements" — which wrap the
// original document in opaque Base64 so its type is unrecognizable until
// the signature is processed — the enveloped approach appends a
// <Signature> child to the original document, preserving its type. The
// signature carries a KeyInfo block with the signer's credential (chain),
// giving the network a transparent, authentic key-distribution mechanism:
// whoever can fetch an advertisement automatically obtains the signer's
// certified public key.
package xdsig

import (
	"encoding/base64"
	"errors"
	"fmt"
	"time"

	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/xmldoc"
)

// Element and algorithm identifiers. The URIs are informative labels in
// the spirit of XMLdsig; verification pins them exactly.
const (
	SignatureElement = "Signature"
	c14nMethod       = "jxta-overlay-c14n-v1"
	sigMethod        = "rsa-sha256-pkcs1v15"
	digestMethod     = "sha256"
)

// Errors returned by verification.
var (
	ErrNoSignature    = errors.New("xdsig: document has no signature")
	ErrDigestMismatch = errors.New("xdsig: digest mismatch (document tampered)")
	ErrBadSignature   = errors.New("xdsig: signature value invalid")
	ErrAlgorithm      = errors.New("xdsig: unsupported algorithm")
	ErrNoKeyInfo      = errors.New("xdsig: signature carries no credential")
)

// Sign appends an enveloped signature to doc, signed with kp. The chain
// is the signer's credential followed by any intermediates needed to
// reach a trust anchor (e.g. [clientCred, brokerCred]); chain[0].Key must
// be kp's public key.
//
// Any pre-existing signature is replaced, so re-publishing a modified
// advertisement re-signs it cleanly.
func Sign(doc *xmldoc.Element, kp *keys.KeyPair, chain ...*cred.Credential) error {
	if doc == nil {
		return errors.New("xdsig: nil document")
	}
	if len(chain) == 0 {
		return errors.New("xdsig: signer credential required")
	}
	if !chain[0].Key.SameIdentity(kp.Public()) {
		return errors.New("xdsig: signer credential key does not match signing key")
	}
	doc.RemoveChildren(SignatureElement)

	digest := keys.SHA256(doc.CanonicalSkip(SignatureElement))
	signedInfo := xmldoc.New("SignedInfo", "")
	signedInfo.AddText("CanonicalizationMethod", c14nMethod)
	signedInfo.AddText("SignatureMethod", sigMethod)
	signedInfo.AddText("DigestMethod", digestMethod)
	signedInfo.AddText("DigestValue", base64.StdEncoding.EncodeToString(digest))

	// A republished advertisement's signature comes from the pair's memo.
	sigValue, err := kp.SignDocument(signedInfo.Canonical())
	if err != nil {
		return fmt.Errorf("xdsig: %w", err)
	}

	keyInfo := xmldoc.New("KeyInfo", "")
	for _, c := range chain {
		cd, err := c.Document()
		if err != nil {
			return fmt.Errorf("xdsig: credential: %w", err)
		}
		keyInfo.Add(cd)
	}

	sig := xmldoc.New(SignatureElement, "")
	sig.Add(signedInfo)
	sig.AddText("SignatureValue", base64.StdEncoding.EncodeToString(sigValue))
	sig.Add(keyInfo)
	doc.Add(sig)
	return nil
}

// Result reports a successful verification.
type Result struct {
	// Chain is the credential chain from the KeyInfo block, leaf first.
	Chain []*cred.Credential
	// Signer is the leaf credential (convenience accessor).
	Signer *cred.Credential
}

// Verify checks the enveloped signature structurally: the digest must
// match the document body and the signature value must verify under the
// leaf credential's key. It does NOT establish trust in the credential
// chain — use VerifyTrusted for the full check.
func Verify(doc *xmldoc.Element) (*Result, error) {
	if doc == nil {
		return nil, errors.New("xdsig: nil document")
	}
	sig := doc.Child(SignatureElement)
	if sig == nil {
		return nil, ErrNoSignature
	}
	signedInfo := sig.Child("SignedInfo")
	if signedInfo == nil {
		return nil, ErrNoSignature
	}
	if signedInfo.ChildText("CanonicalizationMethod") != c14nMethod ||
		signedInfo.ChildText("SignatureMethod") != sigMethod ||
		signedInfo.ChildText("DigestMethod") != digestMethod {
		return nil, ErrAlgorithm
	}

	// Digest covers the document with every Signature element detached.
	// CanonicalSkip serializes that form directly — no deep copy of the
	// advertisement per verification.
	wantDigest, err := base64.StdEncoding.DecodeString(signedInfo.ChildText("DigestValue"))
	if err != nil {
		return nil, fmt.Errorf("xdsig: digest value: %w", err)
	}
	if !keys.ConstantTimeEqual(keys.SHA256(doc.CanonicalSkip(SignatureElement)), wantDigest) {
		return nil, ErrDigestMismatch
	}

	keyInfo := sig.Child("KeyInfo")
	if keyInfo == nil {
		return nil, ErrNoKeyInfo
	}
	var chain []*cred.Credential
	for _, cd := range keyInfo.ChildrenNamed(cred.ElementName) {
		c, err := parseCredential(cd)
		if err != nil {
			return nil, fmt.Errorf("xdsig: keyinfo credential: %w", err)
		}
		chain = append(chain, c)
	}
	if len(chain) == 0 {
		return nil, ErrNoKeyInfo
	}

	sigValue, err := base64.StdEncoding.DecodeString(sig.ChildText("SignatureValue"))
	if err != nil {
		return nil, fmt.Errorf("xdsig: signature value: %w", err)
	}
	if err := chain[0].Key.Verify(signedInfo.Canonical(), sigValue); err != nil {
		return nil, ErrBadSignature
	}
	return &Result{Chain: chain, Signer: chain[0]}, nil
}

// strictBase64 decodes only the one spelling EncodeToString writes of each
// byte string (a length check rules out the newlines it skips).
var strictBase64 = base64.StdEncoding.Strict()

// parseCredential reads a KeyInfo credential as cred.Credential.Document
// writes it: an element holding nothing but the credential's bytes, in
// base64 spelled one way.
func parseCredential(e *xmldoc.Element) (*cred.Credential, error) {
	raw, err := strictBase64.DecodeString(e.Text)
	if err != nil || len(e.Attrs) != 0 || len(e.Children) != 0 || base64.StdEncoding.EncodedLen(len(raw)) != len(e.Text) {
		return nil, cred.ErrMalformed
	}
	return cred.Parse(raw)
}

// VerifyTrusted performs the complete check a receiving peer runs on a
// signed advertisement: structural signature validity, credential chain
// trust up to an anchor in ts, and the CBID binding between the signer's
// claimed peer ID and its key.
func VerifyTrusted(doc *xmldoc.Element, ts *cred.TrustStore, now time.Time) (*Result, error) {
	res, err := Verify(doc)
	if err != nil {
		return nil, err
	}
	if err := ts.VerifyChain(now, res.Chain...); err != nil {
		return nil, fmt.Errorf("xdsig: %w", err)
	}
	if keys.IsCBID(res.Signer.Subject) {
		if err := res.Signer.VerifyCBID(); err != nil {
			return nil, fmt.Errorf("xdsig: %w", err)
		}
	}
	return res, nil
}
