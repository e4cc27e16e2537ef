package core

import (
	"context"
	"errors"
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

	// vcache verifies advertisements through the trust store's verdicts:
	// a broker re-verifies the same signed advertisement on every
	// re-publication, which the store answers with a digest lookup.
	vcache *xdsig.VerifyCache

	// credWire is Cred_Br^Adm's bytes, as secureConnection sends them;
	// share is the broker's agreement key and shareSig its share
	// statement's signature, made once, here, and sent beside them.
	credWire, shareSig []byte
	share              [keys.ShareSize]byte
	// issued holds, per subject, the credential last issued to it (see
	// loginCredential).
	issued *lru.Cache[keys.PeerID, *cred.Credential]

	// requests reads every signed request made for this broker: login and
	// heartbeat.
	requests *proto.RequestGuard

	mu sync.Mutex
	// sids holds the session identifiers handed out and not yet
	// presented, each until sidTTL after its issue, with the key its
	// secureConnection agreed for the login.
	sids lru.Window[string, loginKey]

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
	credWire, err := cfg.Credential.Bytes()
	if err != nil {
		return nil, err
	}
	share, _ := cfg.KeyPair.Public().AgreementShare()
	shareSig, err := cfg.KeyPair.Sign(ShareStatement(cfg.Credential.Subject, share[:]))
	if err != nil {
		return nil, err
	}
	bs := &BrokerSecurity{
		cfg:      cfg,
		b:        b,
		vcache:   xdsig.NewVerifyCache(cfg.Trust),
		credWire: credWire,
		shareSig: shareSig,
		share:    share,
		issued:   lru.New[keys.PeerID, *cred.Credential](issuedCredCapacity),
		requests: proto.NewRequestGuard(cfg.Credential.Subject),
		sids:     lru.NewWindow[string, loginKey](sidCapacity),
	}
	b.RegisterOp(proto.OpSecureConnect, bs.handleSecureConnect)
	b.RegisterOp(proto.OpSecureLogin, bs.handleSecureLogin)
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

// secureConnection's labels: of the broker's share statement, which
// separates it from every other signature the broker's key makes, and of
// the key schedule.
const (
	shareLabel   = "jxta-overlay/broker-share/v1"
	connectLabel = "jxta-overlay/secure-connect/v2"
)

// ConnectTagSize is the length of the tag a secureConnection answer
// carries.
const ConnectTagSize = 32

// loginKey is the AES-256 key one secureConnection agrees on for the
// login that follows it.
type loginKey = [keys.ContentKeySize]byte

// ShareStatement is what a broker signs, once, to state the agreement key
// it holds: the label, its peer ID and the share. Its secureConnection
// answer carries the signature beside Cred_Br^Adm, under whose key the
// client verifies it. The share rides here, not in Cred_Br^Adm: that
// credential is in the chain of every advertisement the broker's clients
// sign, and the share is needed at secureConnection alone.
func ShareStatement(broker keys.PeerID, share []byte) []byte {
	return append(keys.AppendSection([]byte(shareLabel), []byte(broker)), share...)
}

// ConnectKeys derives what one secureConnection agrees on from secret,
// the X25519 of the client's ephemeral share e with the broker's
// agreement key share — the client computes it with its ephemeral, the
// broker with its agreement key: the tag the broker answers with, and the
// key the login that follows is sealed under. HKDF's info is the label, e,
// share, the broker's peer ID and the session identifier sid, so a tag
// answers for one challenge, one broker and one sid, and a broker that
// does not hold the agreement key derives neither.
func ConnectKeys(secret, e, share []byte, broker keys.PeerID, sid string) (tag [ConnectTagSize]byte, login [keys.ContentKeySize]byte) {
	info := make([]byte, 0, len(connectLabel)+2*keys.ShareSize+8+len(broker)+len(sid))
	info = append(append(append(info, connectLabel...), e...), share...)
	info = keys.AppendSection(info, []byte(broker))
	info = keys.AppendSection(info, []byte(sid))
	var okm [ConnectTagSize + keys.ContentKeySize]byte
	keys.HKDF(okm[:], secret, nil, info)
	copy(tag[:], okm[:ConnectTagSize])
	copy(login[:], okm[ConnectTagSize:])
	clear(okm[:])
	return tag, login
}

// handleSecureConnect implements the broker side of §4.2.1: receive the
// client's challenge, a fresh X25519 share E, agree on it with the
// broker's agreement key, mint a session identifier, and prove legitimacy
// with the tag that agreement yields, together with Cred_Br^Adm, the
// agreement key and its share statement S_SKBr(label ‖ ID ‖ share). The
// key the agreement yields beside the tag waits in the sid table for the
// login. A share of small order is refused before any of it: no
// agreement, no sid.
func (bs *BrokerSecurity) handleSecureConnect(_ broker.Caller, msg *endpoint.Message) *endpoint.Message {
	e, ok := msg.Get(proto.ElemChallenge)
	if !ok || keys.CheckShare(e) != nil {
		return proto.Fail(proto.ErrBadRequest)
	}
	secret, err := bs.cfg.KeyPair.Agree(e)
	if err != nil {
		return proto.Fail(proto.ErrBadRequest)
	}
	sid, err := randomID("")
	if err != nil {
		return proto.Fail(proto.ErrBadRequest)
	}
	tag, key := ConnectKeys(secret, e, bs.share[:], bs.cfg.Credential.Subject, sid)
	clear(secret)
	bs.issueSid(sid, key, bs.b.Now())
	return proto.OK().
		AddString(proto.ElemSid, sid).
		Add(proto.ElemTag, tag[:]).
		Add(proto.ElemCred, bs.credWire).
		Add(proto.ElemShare, bs.share[:]).
		Add(proto.ElemSig, bs.shareSig)
}

// issueSid records a session identifier as handed out, with the key its
// login is sealed under, good for sidTTL from now.
func (bs *BrokerSecurity) issueSid(sid string, key loginKey, now time.Time) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	bs.sids.Put(sid, key, now.Add(sidTTL), now)
}

// pendingKey returns the key of the login that presents sid, without
// spending sid: a login that does not open under the key spends nothing.
// An identifier past its time is dropped.
func (bs *BrokerSecurity) pendingKey(sid string, now time.Time) (loginKey, bool) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	key, live := bs.sids.Get(sid, now)
	if !live {
		bs.sids.Delete(sid)
	}
	return key, live
}

// consumeSid enforces single use: a sid is deleted the moment a login
// that opened under its key presents it (§4.2.2 step 5), which is what
// blocks login replay.
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
func (bs *BrokerSecurity) handleSecureLogin(_ broker.Caller, msg *endpoint.Message) *endpoint.Message {
	sid, _ := msg.GetString(proto.ElemSid)
	sealed, ok := msg.Get(proto.ElemEnvelope)
	if !ok || len(sealed) < keys.AEADNonceSize+keys.AEADOverhead {
		return proto.Fail(proto.ErrBadRequest)
	}
	now := bs.b.Now()
	sealKey, live := bs.pendingKey(sid, now)
	if !live {
		return proto.Fail(proto.ErrBadSid)
	}
	// Step 4: open, where it lies, under the key sid's secureConnection
	// agreed: only the client that chose that connect's challenge holds
	// it. A login that does not open spends nothing.
	body, err := keys.AEADOpenInPlace(sealKey[:], sealed[:keys.AEADNonceSize], sealed[keys.AEADNonceSize:])
	if err != nil {
		return proto.Fail(proto.ErrBadRequest)
	}
	// Step 5: S_SKCl(username, password, PKCl), made for this broker by the
	// key it carries, with the single-use session identifier it was sealed
	// for (anti-replay), spent here.
	var peerID keys.PeerID
	var clientKey *keys.PublicKey
	req, err := bs.requests.Open(body, proto.KindLogin, now, func(r *proto.Request) (*keys.PublicKey, error) {
		// PK_Cl and the agreement key the credential will certify beside
		// it, both under the request signature.
		key, err := keys.ParsePublicDER(r.Field(proto.LoginKey))
		if err != nil || len(r.Field(proto.LoginAgree)) != keys.ShareSize {
			return nil, proto.ErrRequestMalformed
		}
		clientKey = key.WithShare((*[keys.ShareSize]byte)(r.Field(proto.LoginAgree)))
		peerID = keys.PeerID(r.Field(proto.LoginPeer))
		if string(r.Field(proto.LoginSid)) != sid || !bs.consumeSid(sid, now) {
			return nil, refusal(proto.ErrBadSid)
		}
		return clientKey, nil
	})
	if err != nil {
		token := requestToken(err)
		if peerID != "" {
			bs.auditAuth(audit.KindLogin, peerID, proto.OpSecureLogin, token)
		}
		return proto.Fail(token)
	}
	user, pass := string(req.Field(proto.LoginUser)), string(req.Field(proto.LoginPass))

	// Step 7: key authenticity against the claimed peer identifier
	// (CBID binding, the mechanism of [15]).
	if err := keys.VerifyCBID(peerID, clientKey); err != nil {
		bs.auditAuth(audit.KindLogin, peerID, proto.OpSecureLogin, proto.ErrCBIDMismatch)
		return proto.Fail(proto.ErrCBIDMismatch)
	}

	// Step 6: username/password against the central database.
	groups, err := bs.b.DB().Authenticate(context.Background(), user, pass)
	if err != nil {
		bs.auditAuth(audit.KindLogin, peerID, proto.OpSecureLogin, proto.ErrAuthFailed)
		return proto.Fail(proto.ErrAuthFailed)
	}

	// Step 8: cr = Cred_Cl^Br containing PK_Cl and the username.
	issued, err := bs.loginCredential(peerID, user, clientKey)
	if err != nil {
		return proto.Fail(proto.ErrBadRequest)
	}
	credWire, err := issued.Bytes()
	if err != nil {
		return proto.Fail(proto.ErrBadRequest)
	}

	// Liveness: the session is recorded with the presence lease it must
	// heartbeat to keep, holding the credential just issued, and the
	// response carries the lease.
	leaseID := bs.newLeaseID()
	bs.b.RegisterLeasedPeer(peerID, user, groups, broker.Lease{ID: leaseID, TTL: bs.cfg.LeaseTTL, Cred: issued})
	bs.auditAuth(audit.KindLogin, peerID, proto.OpSecureLogin, "ok")

	resp := proto.OK().
		AddString(proto.ElemGroups, strings.Join(groups, ",")).
		Add(proto.ElemCred, credWire)
	if leaseID != "" {
		bs.leasesGranted.Add(1)
		resp.AddString(proto.ElemLease, leaseID).
			AddString(proto.ElemLeaseTTL, strconv.FormatInt(bs.cfg.LeaseTTL.Milliseconds(), 10))
	}
	return resp
}

// refusal is a broker check's proto error token, returned through a request
// guard's signer; requestToken is the token any refusal is answered with.
type refusal string

func (r refusal) Error() string { return string(r) }

func requestToken(err error) string {
	var r refusal
	switch {
	case errors.As(err, &r):
		return string(r)
	case errors.Is(err, proto.ErrRequestSignature):
		return proto.ErrBadSignature
	default:
		return proto.ErrBadRequest
	}
}

// issuedCredCapacity bounds the credentials kept for reuse; a subject
// that was evicted is issued a fresh one.
const issuedCredCapacity = 1024

// loginCredential answers a login that has passed every check — session
// identifier, request signature, CBID binding, password — with the
// credential the subject was last issued, when that one certifies the
// same username, key and agreement key and has at least half its validity
// left, and with a fresh one otherwise. A credential states nothing a
// second issuance would change except its validity window, so within the
// window one signature serves every re-join; logging in again does not
// extend it. A fresh credential is remembered as the subject's until less
// than half its validity is left.
func (bs *BrokerSecurity) loginCredential(subject keys.PeerID, username string, key *keys.PublicKey) (*cred.Credential, error) {
	if c, ok := bs.issued.Get(subject, bs.b.Now()); ok && c.SubjectName == username && c.Key.Equal(key) {
		return c, nil
	}
	c, err := bs.IssueClientCredential(subject, username, key)
	if err != nil {
		return nil, err
	}
	bs.issued.Put(subject, c, c.NotAfter.Add(-bs.cfg.CredValidity/2))
	return c, nil
}

// verifyAdv is the signed-advertisement acceptance policy: structural
// XMLdsig validity, a trusted credential chain, CBID binding, ownership
// (the signer must be the peer the advertisement describes) and, for a
// pipe, the derived ID (one record per peer and group).
// Verdicts ride the broker's verification cache, so a re-published
// advertisement costs a digest lookup. The parsed
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

// Trust returns the broker's trust store (telemetry reads its verdict
// statistics).
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
