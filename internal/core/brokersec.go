package core

import (
	"context"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/lru"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/xdsig"
	"jxtaoverlay/internal/xmldoc"
)

// BrokerConfig parameterizes the broker-side security extension.
type BrokerConfig struct {
	// KeyPair is SK/PK_Br.
	KeyPair *keys.KeyPair
	// Credential is Cred_Br^Adm, issued by the administrator.
	Credential *cred.Credential
	// Trust is the broker's trust store (anchored at the administrator).
	Trust *cred.TrustStore
	// CredValidity is the lifetime of client credentials issued at
	// secureLogin (0 = DefaultCredValidity).
	CredValidity time.Duration
	// RequireSignedAdvs makes the broker reject unsigned or untrusted
	// advertisement publications.
	RequireSignedAdvs bool
	// LeaseTTL enables presence leases: secureLogin grants a lease of
	// this duration, the signed heartbeat op renews it, and a session
	// that misses its heartbeats long enough for the lease to lapse is
	// taken offline (audited peer-down "lease-expired", relay flips to
	// queueing). 0 disables leases — presence then never expires, the
	// pre-liveness behaviour. Whoever sets it must Close() the
	// BrokerSecurity to stop the expiry sweeper (BrokerSite.Close does).
	LeaseTTL time.Duration
}

// BrokerSecurity is the security extension attached to one broker.
type BrokerSecurity struct {
	cfg BrokerConfig
	b   *broker.Broker

	// vcache memoizes advertisement verification verdicts: a broker
	// re-verifies the same signed advertisement on every re-publication
	// and federation forward, which the cache turns into a digest lookup.
	vcache *xdsig.VerifyCache

	// credWire is Cred_Br^Adm as secureConnection sends it, rendered once.
	credWire []byte
	// issued holds, per subject, the credential last issued to it (see
	// loginCredential).
	issued *lru.Cache[keys.PeerID, *issuedCred]

	mu sync.Mutex
	// sids holds the session identifiers handed out and not yet
	// presented, each until sidTTL after its issue.
	sids   lru.Window[string, struct{}]
	leases map[keys.PeerID]*lease

	// Liveness counters (see LivenessStats). Atomics: the telemetry
	// pull collectors read them without the mutex.
	leasesGranted      atomic.Uint64
	leasesExpired      atomic.Uint64
	heartbeatsRenewed  atomic.Uint64
	heartbeatsRejected atomic.Uint64

	// Lease-expiry sweeper lifecycle (running only when LeaseTTL > 0).
	sweepStop chan struct{}
	sweepDone chan struct{}
	closeOnce sync.Once
}

// sidTTL bounds how long an unused session identifier stays valid: a
// client presents it in the request that follows, so minutes are ample.
const sidTTL = 2 * time.Minute

// sidCapacity bounds the session identifiers outstanding at once:
// secureConnection needs no login, so without a bound a stranger could
// grow the table for sidTTL. Full, the identifier closest to expiry goes.
const sidCapacity = 4096

// EnableBrokerSecurity attaches the secure primitives to a broker:
// it registers the secureConnection and secureLogin operations and,
// when configured, the signed-advertisement acceptance policy.
func EnableBrokerSecurity(b *broker.Broker, cfg BrokerConfig) (*BrokerSecurity, error) {
	if cfg.KeyPair == nil || cfg.Credential == nil || cfg.Trust == nil {
		return nil, errors.New("core: broker security requires key pair, credential and trust store")
	}
	if !cfg.Credential.Key.SameIdentity(cfg.KeyPair.Public()) {
		return nil, errors.New("core: broker credential does not match key pair")
	}
	if cfg.Credential.Role != cred.RoleBroker {
		return nil, errors.New("core: credential role is not broker")
	}
	if cfg.CredValidity <= 0 {
		cfg.CredValidity = DefaultCredValidity
	}
	credDoc, err := cfg.Credential.Document()
	if err != nil {
		return nil, err
	}
	bs := &BrokerSecurity{
		cfg:      cfg,
		b:        b,
		vcache:   xdsig.NewVerifyCache(cfg.Trust, 0),
		credWire: credDoc.Canonical(),
		issued:   lru.New[keys.PeerID, *issuedCred](issuedCredCapacity),
		sids:     lru.NewWindow[string, struct{}](sidCapacity),
		leases:   make(map[keys.PeerID]*lease),
	}
	b.RegisterOp(proto.OpSecureConnect, bs.handleSecureConnect)
	b.RegisterOp(proto.OpSecureLogin, bs.handleSecureLogin)
	b.RegisterOp(OpSecureRenew, bs.handleSecureRenew)
	b.RegisterOp(OpHeartbeat, bs.handleHeartbeat)
	if cfg.RequireSignedAdvs {
		b.SetAdvVerifier(bs.verifyAdv)
	}
	if cfg.LeaseTTL > 0 {
		bs.sweepStop = make(chan struct{})
		bs.sweepDone = make(chan struct{})
		go bs.sweepLeases()
	}
	return bs, nil
}

// Close stops the lease-expiry sweeper. A no-op when leases are
// disabled; safe to call more than once.
func (bs *BrokerSecurity) Close() {
	bs.closeOnce.Do(func() {
		if bs.sweepStop != nil {
			close(bs.sweepStop)
			<-bs.sweepDone
		}
	})
}

// Credential returns the broker's administrator-issued credential.
func (bs *BrokerSecurity) Credential() *cred.Credential { return bs.cfg.Credential }

// IssueClientCredential issues Cred_Cl^Br for a key out of band — the
// same credential secureLogin would issue, valid from the broker's now —
// exposed for tooling and for pre-provisioned deployments. The key must
// carry its agreement key, which the credential certifies beside it: a
// client credential without one could be sent no round.
func (bs *BrokerSecurity) IssueClientCredential(subject keys.PeerID, username string, key *keys.PublicKey) (*cred.Credential, error) {
	if _, ok := key.AgreementShare(); !ok {
		return nil, keys.ErrNoAgreementKey
	}
	return cred.IssueAt(bs.b.Now(), bs.cfg.KeyPair, bs.cfg.Credential.Subject, subject, username, cred.RoleClient, key, bs.cfg.CredValidity)
}

// PendingSids reports how many session identifiers are outstanding.
func (bs *BrokerSecurity) PendingSids() int {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.sids.Len()
}

// connectLabel separates the broker's secureConnection signature from
// every other signature its key makes: the challenge is the client's to
// choose.
const connectLabel = "jxta-overlay/secure-connect/v1"

// connectSigned is what the broker signs in its secureConnection answer:
// the label, the client's challenge and the broker's agreement key, which
// the login request is then sealed to. The agreement key rides here, not
// in Cred_Br^Adm: that credential is in the chain of every advertisement
// the broker's clients sign, and the login is the one thing sealed to it.
func connectSigned(chall, share []byte) []byte {
	return append(append([]byte(connectLabel), chall...), share...)
}

// loginSigned is what a login request's signature covers: the request,
// then the peer ID of the broker it is for. The ID rides in no field: a
// broker checks the signature over its own, so a request another broker
// opened and re-sealed to it — with a session identifier it handed that
// one — does not verify.
func loginSigned(req []byte, broker keys.PeerID) []byte {
	return append(slices.Clip(req), broker...)
}

// handleSecureConnect implements the broker side of §4.2.1: receive the
// client's random challenge, mint a session identifier, and prove
// legitimacy by returning S_SKBr(chall ‖ share) together with Cred_Br^Adm
// and share, the broker's agreement key.
func (bs *BrokerSecurity) handleSecureConnect(_ keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	chall, ok := msg.Get(proto.ElemChallenge)
	if !ok || len(chall) == 0 {
		return proto.Fail(proto.ErrBadRequest)
	}
	sidBytes, err := keys.RandomBytes(16)
	if err != nil {
		return proto.Fail(proto.ErrBadRequest)
	}
	sid := hex.EncodeToString(sidBytes)
	bs.issueSid(sid, bs.b.Now())

	share, _ := bs.cfg.KeyPair.Public().AgreementShare()
	sig, err := bs.cfg.KeyPair.Sign(connectSigned(chall, share[:]))
	if err != nil {
		return proto.Fail(proto.ErrBadRequest)
	}
	return proto.OK().
		AddString(proto.ElemSid, sid).
		Add(proto.ElemSig, sig).
		Add(proto.ElemCred, bs.credWire).
		Add(proto.ElemShare, share[:])
}

// issueSid records a session identifier as handed out, good for sidTTL
// from now.
func (bs *BrokerSecurity) issueSid(sid string, now time.Time) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	bs.sids.Put(sid, struct{}{}, now.Add(sidTTL), now)
}

// consumeSid enforces single use: a sid is deleted the moment it is
// presented (§4.2.2 step 5), which is what blocks login replay.
func (bs *BrokerSecurity) consumeSid(sid string, now time.Time) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	_, live := bs.sids.Get(sid, now)
	bs.sids.Delete(sid)
	return live
}

// auditAuth records one authentication outcome — "ok", or the proto
// error token the client was refused with — in the broker's audit
// journal. Outcomes that never identified a claimant (undecryptable or
// malformed requests) are not audited: there is no peer to attribute
// them to, and the rate limiter's refusals are audited separately.
func (bs *BrokerSecurity) auditAuth(kind string, peer keys.PeerID, op, reason string) {
	bs.b.Audit(audit.Event{Kind: kind, Peer: string(peer), Op: op, Reason: reason})
}

// handleSecureLogin implements the broker side of §4.2.2.
func (bs *BrokerSecurity) handleSecureLogin(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	envBytes, ok := msg.Get(proto.ElemEnvelope)
	if !ok {
		return proto.Fail(proto.ErrBadRequest)
	}
	env, err := keys.ParseEnvelope(envBytes)
	if err != nil {
		return proto.Fail(proto.ErrBadRequest)
	}
	// Step 4: open with the agreement key SK_Br derives.
	body, err := bs.cfg.KeyPair.Decrypt(env)
	if err != nil {
		return proto.Fail(proto.ErrBadRequest)
	}
	doc, err := xmldoc.ParseCanonical(body)
	if err != nil || doc.Name != "SecureLoginRequest" {
		return proto.Fail(proto.ErrBadRequest)
	}
	user := doc.ChildText("User")
	pass := doc.ChildText("Pass")
	peerID := keys.PeerID(doc.ChildText("PeerID"))
	sid := doc.ChildText("Sid")
	// PK_Cl and the agreement key the credential will certify beside it,
	// both under the request signature.
	agree := doc.ChildText("Agree")
	clientKey, err := keys.ParsePublicBase64(doc.ChildText("Key"), agree)
	if err != nil || agree == "" {
		return proto.Fail(proto.ErrBadRequest)
	}
	sig, err := base64.StdEncoding.DecodeString(doc.ChildText("Signature"))
	if err != nil {
		return proto.Fail(proto.ErrBadRequest)
	}

	// Step 5: single-use session identifier (anti-replay).
	if !bs.consumeSid(sid, bs.b.Now()) {
		bs.auditAuth(audit.KindLogin, peerID, proto.OpSecureLogin, proto.ErrBadSid)
		return proto.Fail(proto.ErrBadSid)
	}

	// Verify the request signature S_SKCl(username, password, PKCl), made
	// for this broker.
	if err := clientKey.Verify(loginSigned(doc.CanonicalSkip("Signature"), bs.cfg.Credential.Subject), sig); err != nil {
		bs.auditAuth(audit.KindLogin, peerID, proto.OpSecureLogin, proto.ErrBadSignature)
		return proto.Fail(proto.ErrBadSignature)
	}

	// Step 7: key authenticity against the claimed peer identifier
	// (CBID binding, the mechanism of [15]).
	if err := keys.VerifyCBID(peerID, clientKey); err != nil {
		bs.auditAuth(audit.KindLogin, peerID, proto.OpSecureLogin, proto.ErrCBIDMismatch)
		return proto.Fail(proto.ErrCBIDMismatch)
	}

	// Step 6: username/password against the central database.
	ctx, cancel := context.WithTimeout(context.Background(), broker.OpTimeout)
	defer cancel()
	groups, err := bs.b.DB().Authenticate(ctx, user, pass)
	if err != nil {
		bs.auditAuth(audit.KindLogin, peerID, proto.OpSecureLogin, proto.ErrAuthFailed)
		return proto.Fail(proto.ErrAuthFailed)
	}

	// Step 8: cr = Cred_Cl^Br containing PK_Cl and the username.
	credWire, err := bs.loginCredential(peerID, user, clientKey)
	if err != nil {
		return proto.Fail(proto.ErrBadRequest)
	}

	bs.b.RegisterPeer(peerID, user, groups)
	bs.auditAuth(audit.KindLogin, peerID, proto.OpSecureLogin, "ok")

	resp := proto.OK().
		AddString(proto.ElemGroups, strings.Join(groups, ",")).
		Add(proto.ElemCred, credWire)
	// Liveness: the response carries the presence lease the session
	// must heartbeat to keep. Granted AFTER RegisterPeer so the lease
	// records the session's ConnectedAt — the monotonic guard key a
	// later expiry is checked against.
	if leaseID, ttl, ok := bs.grantLease(peerID); ok {
		resp.AddString(proto.ElemLease, leaseID).
			AddString(proto.ElemLeaseTTL, strconv.FormatInt(ttl.Milliseconds(), 10))
	}
	return resp
}

// issuedCred is a client credential and the bytes it is sent as.
type issuedCred struct {
	cred *cred.Credential
	wire []byte
}

// issuedCredCapacity bounds the credentials kept for reuse; a subject
// that was evicted is issued a fresh one.
const issuedCredCapacity = 1024

// issueClient issues Cred_Cl^Br, renders it and remembers it as the
// subject's current credential. The entry lapses once less than half the
// validity is left, so what loginCredential hands out always has at least
// that much to run.
func (bs *BrokerSecurity) issueClient(subject keys.PeerID, username string, key *keys.PublicKey) (*issuedCred, error) {
	c, err := bs.IssueClientCredential(subject, username, key)
	if err != nil {
		return nil, err
	}
	doc, err := c.Document()
	if err != nil {
		return nil, err
	}
	ic := &issuedCred{cred: c, wire: doc.Canonical()}
	bs.issued.Put(subject, ic, c.NotAfter.Add(-bs.cfg.CredValidity/2))
	return ic, nil
}

// loginCredential answers a login that has passed every check — session
// identifier, request signature, CBID binding, password — with the
// credential the subject was last issued, when that one certifies the
// same username, key and agreement key and has at least half its validity
// left, and with
// a fresh one otherwise. A credential states nothing a second issuance
// would change except its validity window, so within the window one
// signature serves every re-join; logging in again does not extend it.
func (bs *BrokerSecurity) loginCredential(subject keys.PeerID, username string, key *keys.PublicKey) ([]byte, error) {
	if ic, ok := bs.issued.Get(subject, bs.b.Now()); ok && ic.cred.SubjectName == username && ic.cred.Key.Equal(key) {
		return ic.wire, nil
	}
	ic, err := bs.issueClient(subject, username, key)
	if err != nil {
		return nil, err
	}
	return ic.wire, nil
}

// verifyAdv is the signed-advertisement acceptance policy: structural
// XMLdsig validity, a trusted credential chain, CBID binding, ownership
// (the signer must be the peer the advertisement describes) and, for a
// pipe, the derived ID (one record per peer and group).
// Verdicts ride the broker's verification cache, so a re-published or
// federation-forwarded advertisement costs a digest lookup. The parsed
// advertisement — needed for the ownership check anyway — is returned
// to the broker, which makes this the publish path's only parse.
func (bs *BrokerSecurity) verifyAdv(doc *xmldoc.Element) (advert.Advertisement, error) {
	res, err := bs.vcache.VerifyTrusted(doc, bs.b.Now())
	if err != nil {
		return nil, err
	}
	adv, err := advert.Parse(doc)
	if err != nil {
		return nil, err
	}
	if err := CheckParsedAdvOwnership(adv, res.Signer.Subject); err != nil {
		return nil, err
	}
	// A pipe's ID is not the publisher's to choose: under any other ID
	// one credential could fill every cache with correctly signed records.
	if p, ok := adv.(*advert.Pipe); ok && p.PipeID != advert.GroupPipeID(p.PeerID, p.Group) {
		return nil, errors.New("core: pipe advertisement ID is not derived from its peer and group")
	}
	return adv, nil
}

// VerifyCache exposes the broker's advertisement verification cache for
// diagnostics.
func (bs *BrokerSecurity) VerifyCache() *xdsig.VerifyCache { return bs.vcache }

// Trust returns the broker's trust store (telemetry reads its chain
// cache statistics).
func (bs *BrokerSecurity) Trust() *cred.TrustStore { return bs.cfg.Trust }

// CheckParsedAdvOwnership rejects signed advertisements whose signer is
// not the peer the advertisement describes — without it, any credentialed
// user could still publish advertisements impersonating another peer.
func CheckParsedAdvOwnership(adv advert.Advertisement, signer keys.PeerID) error {
	owner := advOwner(adv)
	if owner != "" && owner != signer {
		return errors.New("core: advertisement owner does not match signer")
	}
	return nil
}

func advOwner(adv advert.Advertisement) keys.PeerID {
	switch a := adv.(type) {
	case *advert.Peer:
		return a.PeerID
	case *advert.Pipe:
		return a.PeerID
	case *advert.Presence:
		return a.PeerID
	case *advert.FileList:
		return a.PeerID
	case *advert.Stats:
		return a.PeerID
	case *advert.Group:
		return a.Creator
	default:
		return ""
	}
}
