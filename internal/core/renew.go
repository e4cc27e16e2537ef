package core

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"time"

	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/xmldoc"
)

// Credentials issued at secureLogin are proof of identity "until cr's
// expiration date" (§4.2.2 step 10). This file adds the natural
// companion primitive: secureRenew, which lets a client holding a
// still-valid credential obtain a fresh one by proof of key possession —
// no password retransmission, hence nothing new for an attacker to
// capture. The exchange reuses the extension's building blocks exactly
// as §6 prescribes for new primitives.

// OpSecureRenew is the broker operation implementing credential renewal.
const OpSecureRenew = "secureRenew"

// ErrRenewRejected is returned when the broker declines to renew.
var ErrRenewRejected = errors.New("core: credential renewal rejected")

// callCredentialed is the client half of every credential-signed broker
// request (secureRenew, heartbeat): it closes the body with a timestamp
// and the session credential, signs the whole with the client key as
// proof of possession, and calls op.
func (s *SecureClient) callCredentialed(ctx context.Context, op string, doc *xmldoc.Element) (*endpoint.Message, error) {
	current, _ := s.credentials()
	if current == nil {
		return nil, ErrNoCredential
	}
	credDoc, err := current.Document()
	if err != nil {
		return nil, err
	}
	doc.AddText("Timestamp", signedTime(s.Now()))
	doc.Add(credDoc)
	sig, err := s.kp.Sign(doc.Canonical())
	if err != nil {
		return nil, err
	}
	return s.Call(ctx, endpoint.NewMessage().
		AddString(proto.ElemOp, op).
		Add(proto.ElemBody, doc.Canonical()).
		Add(proto.ElemSig, sig))
}

// signedTime renders a time the way a credentialed request carries one.
func signedTime(at time.Time) string { return at.UTC().Format(time.RFC3339Nano) }

// issuedCredential takes the credential out of a secureLogin or
// secureRenew response and checks it is this peer's: its key and peer
// ID, issued by the verified broker, the chain valid now. A response
// without a well-formed credential is the caller's rejected error.
func (s *SecureClient) issuedCredential(resp *endpoint.Message, brCred *cred.Credential, rejected error) (*cred.Credential, error) {
	credRaw, ok := resp.Get(proto.ElemCred)
	if !ok {
		return nil, rejected
	}
	// The credential is held for the session and is views of what it was
	// parsed from: a copy, so that it does not hold the response frame.
	credDoc, err := xmldoc.ParseCanonical(bytes.Clone(credRaw))
	if err != nil {
		return nil, rejected
	}
	issued, err := cred.Parse(credDoc)
	if err != nil {
		return nil, rejected
	}
	if !issued.Key.Equal(s.kp.Public()) || issued.Subject != s.PeerID() {
		return nil, ErrCredUnexpected
	}
	if err := s.trust.VerifyChain(s.Now(), issued, brCred); err != nil {
		return nil, ErrCredUnexpected
	}
	return issued, nil
}

// SecureRenewCredential asks the connected broker for a fresh credential
// before the current one lapses. The request carries the current
// credential and is signed with the client key; the broker validates
// both and re-issues with a new validity window.
func (s *SecureClient) SecureRenewCredential(ctx context.Context) error {
	current, brCred := s.credentials()
	if current == nil || brCred == nil {
		return ErrNoCredential
	}
	nonce, err := keys.RandomBytes(16)
	if err != nil {
		return err
	}
	doc := xmldoc.New("SecureRenewRequest", "")
	doc.AddText("Nonce", base64.StdEncoding.EncodeToString(nonce))
	resp, err := s.callCredentialed(ctx, OpSecureRenew, doc)
	if err != nil {
		return errors.Join(ErrRenewRejected, err)
	}
	fresh, err := s.issuedCredential(resp, brCred, ErrRenewRejected)
	if err != nil {
		return err
	}
	if fresh.NotAfter.Before(current.NotAfter) {
		return ErrCredUnexpected
	}
	// Install and re-arm the advertisement signer with the new chain.
	return s.installCredential(fresh, brCred)
}

// credentialedRequest is the broker half: the one verifier of requests
// signed under a session credential. In order: body and signature
// present; canonical parse under the op's root name; an embedded
// credential; that credential chained to this broker's own and within
// validity (through the trust store: a credential seen before is not
// verified again); the proof-of-possession signature over the whole
// body; the CBID binding; a timestamp within two minutes of the broker
// clock. It returns the parsed body and the verified credential, or the
// refusal token. Once the request names a claimant every refusal is
// audited (auditAuth's rule) — against the sender while the credential
// does not parse, against the credential's subject after.
func (bs *BrokerSecurity) credentialedRequest(from keys.PeerID, msg *endpoint.Message, root, kind, op string) (*xmldoc.Element, *cred.Credential, string) {
	body, okBody := msg.Get(proto.ElemBody)
	sig, okSig := msg.Get(proto.ElemSig)
	if !okBody || !okSig {
		return nil, nil, proto.ErrBadRequest
	}
	doc, err := xmldoc.ParseCanonical(body)
	if err != nil || doc.Name != root {
		return nil, nil, proto.ErrBadRequest
	}
	credDoc := doc.Child(cred.ElementName)
	if credDoc == nil {
		return nil, nil, proto.ErrBadRequest
	}
	current, err := cred.Parse(credDoc)
	if err != nil {
		bs.auditAuth(kind, from, op, proto.ErrBadCredential)
		return nil, nil, proto.ErrBadCredential
	}
	now := bs.b.Now()
	ts, tsErr := time.Parse(time.RFC3339Nano, doc.ChildText("Timestamp"))
	token := ""
	switch {
	case bs.cfg.Trust.VerifyChain(now, current, bs.cfg.Credential) != nil:
		token = proto.ErrBadCredential
	case current.Key.Verify(body, sig) != nil:
		token = proto.ErrBadSignature
	case keys.VerifyCBID(current.Subject, current.Key) != nil:
		token = proto.ErrCBIDMismatch
	case tsErr != nil || now.Sub(ts).Abs() > 2*time.Minute:
		token = proto.ErrBadRequest
	}
	if token != "" {
		bs.auditAuth(kind, current.Subject, op, token)
		return nil, nil, token
	}
	return doc, current, ""
}

// handleSecureRenew is the broker side: a verified credentialed request
// is answered with a re-issued credential.
func (bs *BrokerSecurity) handleSecureRenew(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	_, current, token := bs.credentialedRequest(from, msg, "SecureRenewRequest", audit.KindRenew, OpSecureRenew)
	if token != "" {
		return proto.Fail(token)
	}
	// A renewal always issues: a new window is what it asks for.
	fresh, err := bs.issueClient(current.Subject, current.SubjectName, current.Key)
	if err != nil {
		return proto.Fail(proto.ErrBadRequest)
	}
	bs.auditAuth(audit.KindRenew, current.Subject, OpSecureRenew, "ok")
	return proto.OK().Add(proto.ElemCred, fresh.wire)
}
