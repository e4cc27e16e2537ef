package core

import (
	"context"
	"errors"

	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
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

// callCredentialed is the client half of a heartbeat or renewal: a request
// of kind carrying the session credential's bytes, then fields, signed
// with the client key for the broker as proof of possession.
func (s *SecureClient) callCredentialed(ctx context.Context, op string, kind proto.RequestKind, fields ...[]byte) (*endpoint.Message, error) {
	current, brCred := s.credentials()
	if current == nil {
		return nil, ErrNoCredential
	}
	wire, err := current.Bytes()
	if err != nil {
		return nil, err
	}
	req, err := proto.AppendRequest(nil, s.kp, brCred.Subject, kind, s.Now(), proto.NewNonce(), append([][]byte{wire}, fields...)...)
	if err != nil {
		return nil, err
	}
	return s.Call(ctx, endpoint.NewMessage().
		AddString(proto.ElemOp, op).
		Add(proto.ElemBody, req))
}

// issuedCredential takes the credential out of a secureLogin or
// secureRenew response and checks it is this peer's: its key and peer
// ID, issued by the verified broker, the chain valid now. A response
// without a well-formed credential is the caller's rejected error. The
// credential is a copy of the bytes it came as, which heartbeats carry.
func (s *SecureClient) issuedCredential(resp *endpoint.Message, brCred *cred.Credential, rejected error) (*cred.Credential, error) {
	credRaw, ok := resp.Get(proto.ElemCred)
	if !ok {
		return nil, rejected
	}
	issued, err := cred.Parse(credRaw)
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
	resp, err := s.callCredentialed(ctx, OpSecureRenew, proto.KindRenew)
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

// credentialedRequest is the broker half: the request guard admits raw as a
// request of kind whose credential parses, chains to this broker's own and
// is valid now (through the trust store), and binds its subject's CBID to
// the key that signed it (proto.RequestGuard.Open has the rest). It returns
// the request and the credential, or the refusal token. Once the request
// names a claimant every refusal is audited (auditAuth's rule) — against
// the sender while the credential does not parse, its subject after.
func (bs *BrokerSecurity) credentialedRequest(from keys.PeerID, msg *endpoint.Message, kind proto.RequestKind, auditKind, op string) (*proto.Request, *cred.Credential, string) {
	raw, _ := msg.Get(proto.ElemBody)
	now := bs.b.Now()
	var current *cred.Credential
	var claimant keys.PeerID
	req, err := bs.requests.Open(raw, kind, now, func(r *proto.Request) (*keys.PublicKey, error) {
		claimant = from
		c, err := cred.Parse(r.Field(proto.CredField))
		if err != nil {
			return nil, refusal(proto.ErrBadCredential)
		}
		current, claimant = c, c.Subject
		switch {
		case bs.cfg.Trust.VerifyChain(now, c, bs.cfg.Credential) != nil:
			return nil, refusal(proto.ErrBadCredential)
		case keys.VerifyCBID(c.Subject, c.Key) != nil:
			return nil, refusal(proto.ErrCBIDMismatch)
		}
		return c.Key, nil
	})
	if err != nil {
		token := requestToken(err)
		if claimant != "" {
			bs.auditAuth(auditKind, claimant, op, token)
		}
		return nil, nil, token
	}
	return req, current, ""
}

// handleSecureRenew is the broker side: a verified credentialed request
// is answered with a re-issued credential.
func (bs *BrokerSecurity) handleSecureRenew(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	_, current, token := bs.credentialedRequest(from, msg, proto.KindRenew, audit.KindRenew, OpSecureRenew)
	if token != "" {
		return proto.Fail(token)
	}
	// A renewal always issues: a new window is what it asks for.
	fresh, err := bs.issueClient(current.Subject, current.SubjectName, current.Key)
	if err != nil {
		return proto.Fail(proto.ErrBadRequest)
	}
	wire, err := fresh.Bytes()
	if err != nil {
		return proto.Fail(proto.ErrBadRequest)
	}
	bs.auditAuth(audit.KindRenew, current.Subject, OpSecureRenew, "ok")
	return proto.OK().Add(proto.ElemCred, wire)
}
