package core

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/backoff"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/telemetry"
	"jxtaoverlay/internal/trace"
	"jxtaoverlay/internal/xdsig"
	"jxtaoverlay/internal/xmldoc"
)

// Secure-primitive errors.
var (
	ErrBrokerNotLegit  = errors.New("core: broker failed the legitimacy check")
	ErrNoSid           = errors.New("core: no session identifier (call SecureConnection first)")
	ErrNotSecure       = errors.New("core: identity has no key pair (use PSE membership)")
	ErrNoCredential    = errors.New("core: no broker-issued credential (call SecureLogin first)")
	ErrPeerAdvInvalid  = errors.New("core: peer advertisement failed verification")
	ErrLoginRejected   = errors.New("core: secure login rejected")
	ErrCredUnexpected  = errors.New("core: issued credential does not match this peer")
	ErrSenderUnknown   = errors.New("core: sender's signed advertisement unavailable")
	ErrMessageTampered = errors.New("core: secure message failed verification")
	ErrMessageReplayed = errors.New("core: secure message replayed")
	ErrMessageStale    = errors.New("core: secure message outside freshness window")
)

// Option configures a SecureClient.
type Option func(*SecureClient)

// WithMode selects the mode of outgoing secure messages. The default is
// ModeChannel: the paper's primitive on the first message to a peer, with
// a key agreement in its signed header, and one AEAD frame per message
// once the peer has answered (channel.go). ModeFull is the paper's
// stateless primitive on every message — for an application that needs
// each message signed (SECURITY.md, "Session channels") — and offers no
// channel. Whatever it sends, a client answers offers and opens frames.
func WithMode(m Mode) Option { return func(s *SecureClient) { s.mode = m } }

// WithReplayGuard enables receive-side replay protection for the
// messenger primitives — the paper leaves them stateless best-effort;
// this is the further-work hardening (see ReplayGuard).
func WithReplayGuard(g *ReplayGuard) Option { return func(s *SecureClient) { s.replayGuard = g } }

// SecureClient layers the paper's secure primitives over a client peer.
// The embedded Client keeps every original primitive available, so an
// application can be migrated one primitive at a time.
type SecureClient struct {
	*client.Client

	kp    *keys.KeyPair
	trust *cred.TrustStore
	mode  Mode

	replayGuard *ReplayGuard

	// vcache keeps VerifyTrusted verdicts on peers' signed pipe
	// advertisements in the trust store, so messaging the same peers
	// repeatedly (or a group fan-out touching the same advertisements)
	// pays RSA once per advertisement rather than once per message.
	vcache *xdsig.VerifyCache

	// chans holds the session channels, both directions (channel.go);
	// empty until the first offer is made or received.
	chans channelTable
	// chanMetrics is set once the channel collectors are attached.
	chanMetrics atomic.Bool

	// round is the ephemeral key this client's rounds are wrapped under
	// (roundKeyAt), and when it was drawn.
	roundMu sync.Mutex
	round   *keys.AgreementKey
	roundAt time.Time

	// auditor receives every client-side security refusal (the
	// SecurityAlert surface: open, replay and verification failures) as
	// a tamper-evident audit record. Nil = off; loads are nil-tolerant.
	auditor atomic.Pointer[audit.Journal]

	mu  sync.RWMutex
	sid string
	// The session's credential chain: Cred_Cl^Br as last issued to this
	// peer (login, a background resume) and the Cred_Br^Adm it was issued
	// under. Every reader — the heartbeat loop, the first envelope to a
	// peer — goes through credentials(); the membership
	// identity holds a copy for the keystore and for diagnostics only.
	cred       *cred.Credential
	brokerCred *cred.Credential
	// loginKey is what secureConnection agreed with the broker beside sid:
	// the key the login request is sealed under, once.
	loginKey loginKey

	// Presence lease granted at SecureLogin (liveness; see
	// heartbeat.go). hbSeq is the client-side heartbeat sequence,
	// strictly increasing across the whole client lifetime so a lease
	// from a resumed session never sees a repeated sequence number.
	leaseID  string
	leaseTTL time.Duration
	hbSeq    uint64
}

// NewSecureClient wraps a client whose membership identity carries a key
// pair (PSE). The trust store must be anchored at the deployment's
// administrator credential.
func NewSecureClient(cl *client.Client, trust *cred.TrustStore, opts ...Option) (*SecureClient, error) {
	id := cl.Identity()
	if !id.Secure() {
		return nil, ErrNotSecure
	}
	s := &SecureClient{
		Client: cl,
		kp:     id.Keys,
		trust:  trust,
		mode:   ModeChannel,
		cred:   id.Credential, // what the keystore kept, until a login replaces it
	}
	for _, opt := range opts {
		opt(s)
	}
	s.vcache = xdsig.NewVerifyCache(trust)
	cl.SetEnvelopeHandlers(s.receivePipe, s.receiveSlice)
	return s, nil
}

// SetAuditor attaches a tamper-evident audit journal: every client-side
// security refusal that raises a SecurityAlert also lands in the
// journal as an open-fail record, and the alert payload carries the
// record's sequence number under "audit" so an alert, its audit record
// and its trace waterfall cross-reference each other.
func (s *SecureClient) SetAuditor(j *audit.Journal) {
	if j != nil {
		s.auditor.Store(j)
	}
}

// alertAudit appends one security refusal to the attached audit journal
// (nil-safe) and builds the SecurityAlert payload, stamping the audit
// sequence number when a record was written.
func (s *SecureClient) alertAudit(peer keys.PeerID, op, reason string, tid uint64) map[string]string {
	payload := map[string]string{"reason": reason}
	if seq := s.auditor.Load().Record(audit.Event{Kind: audit.KindOpenFail, Peer: string(peer), Op: op, Reason: reason, Trace: tid}); seq != 0 {
		payload["audit"] = strconv.FormatUint(seq, 10)
	}
	return payload
}

// auditChannel records one session-channel event: a handshake outcome, a
// teardown by refusal, a fallback. Never on the per-message path. peer is
// copied: it may be a view of a delivered frame, which the journal's ring
// would otherwise hold whole.
func (s *SecureClient) auditChannel(peer keys.PeerID, op, reason string) {
	s.auditor.Load().Record(audit.Event{Kind: audit.KindChannel, Peer: strings.Clone(string(peer)), Op: op, Reason: reason})
}

// Logout closes the session and with it every session channel, in both
// directions: a peer that logs out keeps no key of the session. The
// channels go once the pipes are unbound and their pumps have exited, so
// that an offer being answered as the session ends cannot install its
// channel into the next one.
func (s *SecureClient) Logout(ctx context.Context) error {
	err := s.Client.Logout(ctx)
	s.chans.reset()
	return err
}

// Close detaches the peer and drops its session channels, after its
// pumps have exited.
func (s *SecureClient) Close() {
	s.Client.Close()
	s.chans.reset()
}

// roundKeyAt is the ephemeral key this client's rounds are wrapped
// under at now: one key for channelLifetime by the node's clock, then a
// fresh one. The key memoizes its X25519 per recipient and each
// recipient its X25519 per key (keys/wrap.go), so rounds after a
// lifetime's first cost neither end a key agreement; every round's wrap
// is still bound to its own AEAD nonce.
func (s *SecureClient) roundKeyAt(now time.Time) (*keys.AgreementKey, error) {
	s.roundMu.Lock()
	defer s.roundMu.Unlock()
	if s.round == nil || now.Before(s.roundAt) || !now.Before(s.roundAt.Add(channelLifetime)) {
		k, err := s.kp.NewRoundKey()
		if err != nil {
			return nil, err
		}
		s.round, s.roundAt = k, now
	}
	return s.round, nil
}

// VerifyCache exposes the client's advertisement verification cache for
// diagnostics.
func (s *SecureClient) VerifyCache() *xdsig.VerifyCache { return s.vcache }

// Sid returns the current session identifier ("" before
// SecureConnection or after SecureLogin consumes it).
func (s *SecureClient) Sid() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sid
}

// BrokerCredential returns the verified broker credential.
func (s *SecureClient) BrokerCredential() *cred.Credential {
	_, broker := s.credentials()
	return broker
}

// credentials returns the session credential and the broker's.
func (s *SecureClient) credentials() (own, broker *cred.Credential) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cred, s.brokerCred
}

// installCredential makes issued, which brCred signed, the session
// credential: in the keystore (PSE) or on the bare identity, then — under
// the lock every reader takes — in this client, and from here on
// everything published is signed with that chain.
func (s *SecureClient) installCredential(issued, brCred *cred.Credential) error {
	if pse, ok := s.Membership().(*membership.PSE); ok {
		if err := pse.SetCredential(issued, brCred); err != nil {
			return err
		}
	} else {
		id := s.Identity()
		id.Credential = issued
		id.Chain = []*cred.Credential{issued, brCred}
	}
	s.mu.Lock()
	s.cred = issued
	s.mu.Unlock()
	s.SetAdvSigner(func(doc *xmldoc.Element) error {
		return xdsig.Sign(doc, s.kp, issued, brCred)
	})
	return nil
}

// SecureConnection implements §4.2.1: locate the broker, then
// authenticate it with a fresh challenge, an ephemeral X25519 share the
// broker must agree with under the agreement key its credential's key
// states it holds. On success the broker's credential, the fresh session
// identifier and the key the login will be sealed under are stored; on
// failure the broker is treated as illegitimate and the connection is
// abandoned.
func (s *SecureClient) SecureConnection(ctx context.Context, brokerID keys.PeerID) error {
	// Step 1: wait for a broker and open the connection.
	if err := s.Connect(ctx, brokerID); err != nil {
		return err
	}
	// Step 2: choose the challenge, a fresh ephemeral share E.
	eph, err := keys.NewAgreementKey()
	if err != nil {
		return err
	}
	e := eph.Share()
	// Step 3: Cl → Br {E}.
	msg := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpSecureConnect).
		Add(proto.ElemChallenge, e)
	resp, err := s.Call(ctx, msg)
	if err != nil {
		s.reject(brokerID, "no secure connection response")
		return fmt.Errorf("%w: %v", ErrBrokerNotLegit, err)
	}
	// Step 5 response: {sid, tag, Cred_Br^Adm, share, S_SKBr(label ‖ ID ‖ share)}.
	sid, _ := resp.GetString(proto.ElemSid)
	tag, _ := resp.Get(proto.ElemTag)
	share, _ := resp.Get(proto.ElemShare)
	sig, _ := resp.Get(proto.ElemSig)
	credRaw, ok := resp.Get(proto.ElemCred)
	if sid == "" || len(tag) != ConnectTagSize || len(share) != keys.ShareSize || len(sig) == 0 || !ok {
		s.reject(brokerID, "incomplete secure connection response")
		return ErrBrokerNotLegit
	}
	// Held for the session (and by the trust store): Parse reads a copy,
	// so that nothing of it holds the response frame.
	brCred, err := cred.Parse(credRaw)
	if err != nil {
		s.reject(brokerID, "malformed broker credential")
		return ErrBrokerNotLegit
	}
	// Step 6: check Cred_Br^Adm authenticity using PK_Adm.
	now := s.Now()
	if err := s.trust.Verify(brCred, now); err != nil || brCred.Role != cred.RoleBroker {
		s.reject(brokerID, "broker credential not issued by administrator")
		return ErrBrokerNotLegit
	}
	// Step 7: the share statement under PK_Br from the credential makes the
	// share the certified broker's agreement key, and the tag proves its
	// holder agreed with E: nobody else derives it.
	if err := brCred.Key.Verify(ShareStatement(brCred.Subject, share), sig); err != nil {
		s.reject(brokerID, "broker's agreement key not stated under its credential's key")
		return ErrBrokerNotLegit
	}
	secret, err := eph.Agree(share)
	if err != nil {
		s.reject(brokerID, "broker offers no usable agreement key")
		return ErrBrokerNotLegit
	}
	want, login := ConnectKeys(secret, e, share, brCred.Subject, sid)
	clear(secret)
	if !keys.ConstantTimeEqual(tag, want[:]) {
		s.reject(brokerID, "broker does not hold its agreement key (impersonator)")
		return ErrBrokerNotLegit
	}
	// Brokers with CBIDs also get the key/ID binding check.
	if keys.IsCBID(brCred.Subject) {
		if err := brCred.VerifyCBID(); err != nil {
			s.reject(brokerID, "broker credential CBID mismatch")
			return ErrBrokerNotLegit
		}
	}
	// Step 8-9: broker is legitimate; store sid, its login key and Cred_Br.
	s.mu.Lock()
	s.sid, s.loginKey = sid, login
	s.brokerCred = brCred
	s.mu.Unlock()
	s.Bus().Emit(events.Event{Type: events.BrokerVerified, From: brokerID, Payload: map[string]string{
		"broker": brCred.SubjectName,
	}})
	return nil
}

func (s *SecureClient) reject(brokerID keys.PeerID, reason string) {
	s.Bus().Emit(events.Event{Type: events.BrokerRejected, From: brokerID, Payload: map[string]string{
		"reason": reason,
	}})
}

// SecureLogin implements §4.2.2: the login request is signed with the
// client's key for the verified broker, bundled with the session
// identifier, and sealed under the key secureConnection agreed beside it,
// with the identifier in clear as the key's handle. On success the
// broker-issued credential is installed and every advertisement published
// from now on is signed.
func (s *SecureClient) SecureLogin(ctx context.Context, password string) error {
	s.mu.Lock()
	sid, key := s.sid, s.loginKey
	brCred := s.brokerCred
	s.sid, s.loginKey = "", loginKey{} // single use, mirroring the broker
	s.mu.Unlock()
	defer clear(key[:])
	if brCred == nil {
		return ErrNoCredential
	}
	if sid == "" {
		return ErrNoSid
	}
	pub := s.kp.Public()
	der, err := pub.MarshalDER()
	if err != nil {
		return err
	}
	share, _ := pub.AgreementShare()
	// Step 1: req = S_SKCl(username, password, PKCl, share, sid), for the
	// verified broker, behind room for the AEAD nonce. The broker certifies
	// the agreement key, share, in Cred_Cl^Br.
	req, err := proto.AppendRequest(make([]byte, keys.AEADNonceSize), s.kp, brCred.Subject, proto.KindLogin, s.Now(), proto.NewNonce(),
		[]byte(s.Username()), []byte(password), []byte(s.PeerID()), der, share[:], []byte(sid))
	if err != nil {
		return err
	}
	// Step 3: Cl → Br {sid, nonce ‖ AES-GCM(key, nonce, req)}, sealed where
	// it was signed.
	nonce := req[:keys.AEADNonceSize]
	if _, err := rand.Read(nonce); err != nil {
		return err
	}
	sealed, err := keys.AEADSealInPlace(key[:], nonce, req, keys.AEADNonceSize)
	if err != nil {
		return err
	}
	resp, err := s.Call(ctx, endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpSecureLogin).
		AddString(proto.ElemSid, sid).
		Add(proto.ElemEnvelope, sealed))
	if err != nil {
		s.Bus().Emit(events.Event{Type: events.LoginFailed, From: s.Broker()})
		return fmt.Errorf("%w: %v", ErrLoginRejected, err)
	}

	// Step 9-10: receive and validate cr = Cred_Cl^Br.
	myCred, err := s.issuedCredential(resp, brCred)
	if err != nil {
		return err
	}

	if err := s.installCredential(myCred, brCred); err != nil {
		return err
	}

	// Liveness: record the presence lease, if the broker granted one.
	leaseID, _ := resp.GetString(proto.ElemLease)
	var leaseTTL time.Duration
	if ttlStr, ok := resp.GetString(proto.ElemLeaseTTL); ok {
		if ms, err := strconv.ParseInt(ttlStr, 10, 64); err == nil && ms > 0 {
			leaseTTL = time.Duration(ms) * time.Millisecond
		}
	}
	s.mu.Lock()
	s.leaseID = leaseID
	s.leaseTTL = leaseTTL
	s.mu.Unlock()

	var groups []string
	if csv, _ := resp.GetString(proto.ElemGroups); csv != "" {
		groups = strings.Split(csv, ",")
	}
	return s.FinishLogin(ctx, groups)
}

// issuedCredential takes the credential out of a secureLogin response and
// checks it is this peer's: its key and peer ID, issued by the verified
// broker, the chain valid now. A response without a well-formed credential
// is ErrLoginRejected.
func (s *SecureClient) issuedCredential(resp *endpoint.Message, brCred *cred.Credential) (*cred.Credential, error) {
	credRaw, _ := resp.Get(proto.ElemCred)
	issued, err := cred.Parse(credRaw)
	if err != nil {
		return nil, ErrLoginRejected
	}
	if !issued.Key.Equal(s.kp.Public()) || issued.Subject != s.PeerID() {
		return nil, ErrCredUnexpected
	}
	if err := s.trust.VerifyChain(s.Now(), issued, brCred); err != nil {
		return nil, ErrCredUnexpected
	}
	return issued, nil
}

// SecureMsgPeer implements §4.3.1: fetch and verify the destination's
// signed pipe advertisement, extract PK from the enclosed credential,
// then send E_PK(m, S_SK(m)). In the default mode that envelope also
// offers the peer a session channel, and once the peer has accepted, a
// message is one frame on it: no lookup, no signature, no key wrap.
func (s *SecureClient) SecureMsgPeer(ctx context.Context, peer keys.PeerID, group, text string) error {
	// A text no form of it fits a frame in is refused before a sequence
	// number is claimed or anything sealed: the recipient would drop it.
	if err := endpoint.CheckElementData(frameSize(len(text))); err != nil {
		return err
	}
	if s.mode == ModeChannel {
		now := s.Now()
		if frame, aead, route, ok := s.chans.claimFrame(pairKey{peer, group}, text, now); ok {
			return s.sendSecure(route.(*advert.Pipe), group, frameSize(len(text)), func(dst []byte) ([]byte, error) {
				return sealFrame(dst, aead, frame, endpoint.ReadOnlyBytes(text), now), nil
			})
		}
	}
	return s.sendEnvelope(ctx, peer, group, text, nil)
}

// sendEnvelope is the paper's primitive. In the default mode the signed
// header carries the pending offer to the peer; resends, when set, names
// the refused frame whose message this is, as its refusal does behind the
// mode byte.
func (s *SecureClient) sendEnvelope(ctx context.Context, peer keys.PeerID, group, text string, resends []byte) error {
	res, pipeAdv, err := s.recipient(ctx, peer, group)
	if err != nil {
		return err
	}
	// Nothing is sealed to a peer whose credential certifies no usable
	// agreement key, and nothing weaker is sent to it instead.
	if err := res.Signer.Key.CheckAgreementKey(); err != nil {
		return err
	}
	// One reading for the offer and the envelope that carries it.
	now := s.Now()
	h := header{sender: s.PeerID(), group: group, at: now.UnixNano(), resends: resends}
	if s.mode == ModeChannel {
		ends, err := s.channelEnds(res.Signer.Key, peer, group, true)
		if err != nil {
			return err
		}
		if h.channel, h.share, err = s.chans.offer(pairKey{peer, group}, pipeAdv, ends, s.channelNotAfter(res), now); err != nil {
			return err
		}
		s.attachChannelMetrics()
	}
	e, err := newEnvelope(s.kp, &h, endpoint.ReadOnlyBytes(text), res.Signer.Key)
	if err != nil {
		return err
	}
	return s.sendSecure(pipeAdv, group, e.size(), e.seal)
}

// sendSecure puts one secure wire on a peer's group pipe: two elements,
// the wire and the group. seal appends the wire, size bytes, to the frame
// the endpoint builds, so the frame is the one buffer the wire occupies.
func (s *SecureClient) sendSecure(pipe *advert.Pipe, group string, size int, seal func(dst []byte) ([]byte, error)) error {
	return s.Control().SendOnPipe(pipe, &endpoint.Room{Size: size, Fill: seal},
		endpoint.Element{Name: proto.ElemEnvelope}, // the room
		endpoint.Element{Name: proto.ElemGroup, Data: endpoint.ReadOnlyBytes(group)})
}

// sendKept is sendSecure for a wire the sender keeps (a slice of a round,
// an accept): it is copied into the frame.
func (s *SecureClient) sendKept(pipe *advert.Pipe, group string, wire []byte) error {
	return s.sendSecure(pipe, group, len(wire), func(dst []byte) ([]byte, error) { return append(dst, wire...), nil })
}

// groupPipe is peer's input pipe for group. Its ID is derived
// (advert.GroupPipeID), so an answer to a peer — an accept, a refusal —
// needs no lookup; nothing about it is trusted.
func groupPipe(peer keys.PeerID, group string) *advert.Pipe {
	return &advert.Pipe{PipeID: advert.GroupPipeID(peer, group), PipeType: advert.PipeUnicast, PeerID: peer, Group: group}
}

// SecureMsgPeerGroup fans a secure message out over the group's online
// members (§4.3.1) in the group round format: every recipient's signed pipe advertisement is verified in parallel (cached
// after the first encounter), then sealRounds signs ONE round header and
// wraps the content key to each recipient's certified agreement key — a
// 100-member round costs one RSA signature instead of one hundred, and no
// recipient an RSA private-key operation — and each member is sent its own
// slice of the round: a message addressed to that member, its wrap alone
// beside the shared ciphertext. The returned count and first error match
// the sequential iteration order.
func (s *SecureClient) SecureMsgPeerGroup(ctx context.Context, group, text string) (int, error) {
	members, err := s.GetOnlinePeers(ctx, group)
	if err != nil {
		return 0, err
	}
	ids := s.others(members)
	targets, errs := s.verifiedTargets(ctx, group, ids)
	s.sealRounds(group, text, targets, errs, func(d *DetachedRound, chunk []int, _ uint64) {
		// Cut before fanning out: a DetachedRound is not safe for
		// concurrent use. Leaf j is chunk[j]'s wrap.
		slices := d.Slices()
		forEach(runtime.GOMAXPROCS(0), len(chunk), func(j int) {
			i := chunk[j]
			errs[i] = s.sendKept(targets[i].pipe, group, slices[j])
		})
	})
	return tallyFanOut(errs)
}

// roundTarget is one fan-out recipient; key and pipe are set once its
// signed pipe advertisement verified.
type roundTarget struct {
	key  *keys.PublicKey
	pipe *advert.Pipe
}

// verifiedTargets resolves and verifies every peer's certified key in
// parallel (steps 1-3 of §4.3.1, once per peer, verification cached).
// Both results are indexed like peers. Verification (RSA, until a
// verdict is cached) and the sends that follow are CPU-bound, so a
// group fan-out runs as many at once as there are cores.
func (s *SecureClient) verifiedTargets(ctx context.Context, group string, peers []keys.PeerID) ([]roundTarget, []error) {
	targets := make([]roundTarget, len(peers))
	errs := make([]error, len(peers))
	forEach(runtime.GOMAXPROCS(0), len(peers), func(i int) {
		var res *xdsig.Result
		if res, targets[i].pipe, errs[i] = s.recipient(ctx, peers[i], group); errs[i] == nil {
			targets[i].key = res.Signer.Key
		}
	})
	return targets, errs
}

// sealRounds is the one round fan-out loop, under SecureMsgPeerGroup
// (deliver = send each member its slice down its pipe) and
// relayRounds (deliver = upload it once to the broker). One
// signature per round; only the key wraps differ. Targets beyond the
// wire format's recipient cap are split into consecutive rounds, so
// arbitrarily large groups still deliver (at one signature per
// maxRoundRecipients members). Each round is its own trace: the ID minted
// here times the seal and is handed to deliver, which may attach it to
// what it sends. chunk lists the round's recipients in wrap order as
// indices into targets; a round that fails to seal is recorded against
// each of them in errs and not delivered. A verified key that certifies
// no usable agreement key is recorded against its recipient as an
// unverifiable one is, and that recipient is sent nothing.
func (s *SecureClient) sealRounds(group, text string, targets []roundTarget, errs []error, deliver func(d *DetachedRound, chunk []int, tid uint64)) {
	verified := make([]int, 0, len(targets))
	for i := range targets {
		if targets[i].key == nil {
			continue
		}
		if err := targets[i].key.CheckAgreementKey(); err != nil {
			errs[i] = err
			continue
		}
		verified = append(verified, i)
	}
	tr := s.Tracer()
	for start := 0; start < len(verified); start += maxRoundRecipients {
		chunk := verified[start:min(start+maxRoundRecipients, len(verified))]
		keyList := make([]*keys.PublicKey, len(chunk))
		for j, i := range chunk {
			keyList[j] = targets[i].key
		}
		tid := tr.NewID()
		spSeal := trace.Begin(tid, trace.StageSeal)
		now := s.Now()
		eph, err := s.roundKeyAt(now)
		var d *DetachedRound
		if err == nil {
			d, err = sealRound(s.kp, s.PeerID(), group, endpoint.ReadOnlyBytes(text), keyList, eph, now)
		}
		if err != nil {
			tr.End(spSeal, trace.OutcomeError)
			for _, i := range chunk {
				errs[i] = err
			}
			continue
		}
		tr.End(spSeal, trace.OutcomeOK)
		deliver(d, chunk, tid)
	}
}

func tallyFanOut(errs []error) (int, error) {
	sent := 0
	var firstErr error
	for _, err := range errs {
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sent++
	}
	return sent, firstErr
}

// recipient is verifiedPeer for a send, which raises a SecurityAlert,
// audited, when the advertisement of the peer it was about to seal to
// does not verify.
func (s *SecureClient) recipient(ctx context.Context, peer keys.PeerID, group string) (*xdsig.Result, *advert.Pipe, error) {
	res, pipeAdv, err := s.verifiedPeer(ctx, peer, group)
	if errors.Is(err, ErrPeerAdvInvalid) {
		s.Bus().Emit(events.Event{Type: events.SecurityAlert, From: peer, Group: group,
			Payload: s.alertAudit(peer, "lookupPipe", err.Error(), 0)})
	}
	return res, pipeAdv, err
}

// verifiedPeer resolves peer's signed pipe advertisement in group and
// returns it beside its verdict (peerVerdict): the key a send seals to
// (steps 1-3 of §4.3.1) and the key a delivery's signature is checked
// under (steps 6-7) alike.
func (s *SecureClient) verifiedPeer(ctx context.Context, peer keys.PeerID, group string) (*xdsig.Result, *advert.Pipe, error) {
	pipeAdv, doc, err := s.LookupPipe(ctx, peer, group)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.peerVerdict(peer, pipeAdv, doc)
	return res, pipeAdv, err
}

// peerVerdict is the one verdict on peer's pipe advertisement, pipeAdv as
// parsed from doc, at this node's now: a trusted chain, whose signer is
// peer and owns the advertisement. The broker checks ownership at publish
// too, so nothing a broker served fails it; the check reuses the parse the
// lookup made. A refused doc leaves the cache, unless a copy of other
// bytes replaced it there meanwhile: anyone can push a peer a forged copy,
// and it must not answer every lookup for its lifetime — the next one asks
// the broker, which verified its own copy at publish.
func (s *SecureClient) peerVerdict(peer keys.PeerID, pipeAdv *advert.Pipe, doc *xmldoc.Element) (*xdsig.Result, error) {
	res, err := s.vcache.VerifyTrusted(doc, s.Now())
	if err != nil {
		err = fmt.Errorf("%w: %w", ErrPeerAdvInvalid, err)
	} else if res.Signer.Subject != peer || CheckParsedAdvOwnership(pipeAdv, res.Signer.Subject) != nil {
		err = fmt.Errorf("%w: its signer does not own it", ErrPeerAdvInvalid)
	}
	if err != nil {
		s.Cache().Forget(pipeAdv, doc)
		return nil, err
	}
	return res, nil
}

// refused reports whether err is a verdict no later lookup can turn: an
// untrusted issuer, a bad signature, a signer that does not own the
// advertisement. A chain that lapsed (cred.ErrExpired) is not one: its
// owner's re-publication, which the broker pushes, can supersede it.
func refused(err error) bool {
	return errors.Is(err, ErrPeerAdvInvalid) && !errors.Is(err, cred.ErrExpired)
}

// pipeForms is what a group pipe carries: a peer sends envelopes, slices
// of its own rounds, and its channels' frames and refusals. The relay's
// push carries slices only (formSlice).
const pipeForms = formEnvelope | formSlice | formChannel

// receivePipe is the client's entry for its group pipes
// (client.EnvelopeHandler).
func (s *SecureClient) receivePipe(group string, from keys.PeerID, msg *endpoint.Message) {
	s.handleEnvelope(group, from, msg, pipeForms)
}

// receiveSlice is the client's entry for the relay's push, one slice of it
// at a time (client.SliceHandler): it opens slices and refuses the rest.
func (s *SecureClient) receiveSlice(group string, origin, wire []byte, tid uint64) {
	s.handleWire(group, "", origin, wire, tid, formSlice)
}

// handleEnvelope hands the secure wire msg carries, and the trace ID it
// may carry, to handleWire. from is whoever delivered msg; accept, the
// wire forms its surface takes.
func (s *SecureClient) handleEnvelope(group string, from keys.PeerID, msg *endpoint.Message, accept wireForms) {
	wire, ok := msg.Get(proto.ElemEnvelope)
	if !ok {
		return
	}
	var tid uint64
	if s.Tracer() != nil { // saves the trace element's lookup when tracing is off
		if idStr, _ := msg.GetString(proto.ElemTrace); idStr != "" {
			tid = trace.ParseID(idStr)
		}
	}
	s.handleWire(group, from, nil, wire, tid, accept)
}

// handleWire is the receiving side of §4.3.1 (steps 5-7): decrypt with
// the own private key, then authenticate the sender through its signed
// pipe advertisement. from is whoever delivered the wire, or empty for a
// relay push, whose claimed origin is read only when an alert names it;
// tid is the sender's trace ID (0: untraced); accept, the wire forms the
// surface takes.
func (s *SecureClient) handleWire(group string, from keys.PeerID, origin, wire []byte, tid uint64, accept wireForms) {
	// Trace correlation: a security rejection below ends the open span
	// with OutcomeAlert (force-captured) and stamps the trace ID into the
	// SecurityAlert payload, so an alert can be looked up as a full
	// waterfall.
	tr := s.Tracer()
	spOpen := trace.Begin(tid, trace.StageOpen)
	alert := func(from keys.PeerID, reason string) {
		// Audit before emitting so the alert payload can carry the audit
		// record's sequence number alongside the trace ID.
		payload := s.alertAudit(from, "open", reason, tid)
		if tid != 0 { // an untraced alert names no trace
			payload["trace"] = trace.FormatID(tid)
		}
		tr.End(spOpen, trace.OutcomeAlert)
		s.Bus().Emit(events.Event{Type: events.SecurityAlert, From: from, Group: group, Payload: payload})
	}
	now := s.Now()
	var buf Opened
	opened, err := openWire(&buf, s.kp, wire, accept, &group, s.replayGuard, &s.chans, now)
	if err != nil {
		var unknown *unknownChannelError
		switch {
		case errors.As(err, &unknown):
			// This peer restarted, logged out or let the channel lapse: the
			// sender is told, and sends the message again as an envelope.
			s.refuseFrame(from, group, unknown.frame, now)
		case opened == nil:
			// Refused before the header parsed: only the deliverer is known.
			if from == "" {
				from = keys.PeerID(origin)
			}
			alert(from, "secure envelope rejected: "+err.Error())
		default:
			// Refused after the header parsed (wrong group label, replay), or
			// after a channel's key opened it: the sender is known.
			alert(opened.Sender, err.Error())
		}
		return
	}
	switch opened.Mode {
	case ModeRefusal:
		s.handleRefusal(from, group, opened.refusal, now)
		return
	case ModeAccept:
		// It completes the offer to from pending under the channel ID it
		// names if its tag is the one that offer's key schedule derives,
		// which only the offered peer's certified agreement key can make.
		// One that names nothing pending — a duplicate, the answer to an
		// offer long gone, one in another peer's name — is dropped without
		// a word.
		switch s.chans.accepted(pairKey{from, group}, opened.accept, now) {
		case acceptEstablished:
			s.auditChannel(from, "accept", "established")
		case acceptInvalid:
			s.auditChannel(from, "accept", "refused: does not match the offer")
			alert(from, "channel accept does not match the offer")
		}
		return
	}
	// A frame's Sender is its channel's peer, whose verified signature made
	// the offer that established the channel; every other wire that opened
	// is signed, and is delivered only under its sender's certified key.
	var sender *xdsig.Result
	var user string
	if opened.via != nil {
		user = opened.via.user
	} else {
		sender, err = s.senderKeyPatient(opened.Sender, group)
		if err != nil {
			alert(opened.Sender, ErrSenderUnknown.Error())
			return
		}
		if err := opened.VerifySignature(sender.Signer.Key); err != nil {
			alert(opened.Sender, ErrMessageTampered.Error())
			return
		}
		user = sender.Signer.SubjectName
	}
	tr.End(spOpen, trace.OutcomeOK)
	// A message sent again after a refusal that was not this peer's (it
	// holds the channel and opened the frame) has been delivered already.
	delivered := opened.resends != nil &&
		s.chans.alreadyOpened(pairKey{opened.Sender, opened.Group}, *opened.resends, now)
	if !delivered {
		// End-to-end delivery latency, measured against the signed (and
		// replay-guarded) send timestamp — this feeds the client-side
		// histogram that scenario quantiles read. A reading of its own: the
		// open, and maybe a sender lookup, lie between now and here.
		if !opened.SentAt.IsZero() {
			s.ObserveDelivery(s.Now().Sub(opened.SentAt))
		}
		// Data is a view of the delivered frame, opened where it lay: a
		// subscriber that keeps the body keeps the frame, which is that body
		// and under a kilobyte of header and routing.
		// Its attributes are typed fields: every SecureMessage's sender is
		// authenticated, which Attr("authenticated") says without a map.
		s.Bus().Emit(events.Event{
			Type:  events.SecureMessage,
			From:  opened.Sender,
			Group: group,
			Mode:  opened.Mode.String(),
			User:  user,
			Data:  opened.Body,
		})
	}
	// The message is out; now the offer it carried, whose answer costs key
	// agreements the message's latency need not carry.
	if sender != nil && opened.Mode == ModeFull && opened.hs != nil {
		if reason := s.answerOffer(opened, sender); reason != "" {
			alert(opened.Sender, reason)
		}
	}
}

// answerOffer is the responder's half of the handshake, for an offer
// whose envelope passed every check: derive the channel key from a fresh
// share and this peer's certified agreement key, store the inbound
// channel, and send the accept down the initiator's group pipe. A
// repeated offer is answered with the accept already made. It returns the
// reason for an alert, if any.
func (s *SecureClient) answerOffer(o *Opened, initiator *xdsig.Result) (alert string) {
	// o's strings are views of the frame its header was parsed from, and
	// the table would hold that frame for as long as it holds the channel:
	// the certified subject (verified equal to o.Sender) and a copy of the
	// group stand in.
	pair := pairKey{initiator.Signer.Subject, strings.Clone(o.Group)}
	pipe := groupPipe(pair.peer, pair.group)
	notAfter := s.channelNotAfter(initiator)
	// One reading: the offer is judged, and the channel installed, at it.
	now := s.Now()
	resend, accept := s.chans.offered(pair, o.hs.id, notAfter, now)
	if resend != nil {
		_ = s.sendKept(pipe, pair.group, resend) // best effort, as the first was
	}
	if !accept {
		return ""
	}
	s.attachChannelMetrics()
	fail := func(err error) string {
		s.auditChannel(pair.peer, "offer", "failed: "+err.Error())
		return "channel offer refused: " + err.Error()
	}
	ends, err := s.channelEnds(initiator.Signer.Key, pair.peer, pair.group, false)
	if err != nil {
		return fail(err)
	}
	ends.initiatorShare = o.hs.share
	aead, wire, err := answer(s.kp, o.hs.id, ends)
	if err != nil {
		return fail(err)
	}
	s.chans.install(&inChannel{id: o.hs.id, pair: pair, user: initiator.Signer.SubjectName, aead: aead, accept: wire}, notAfter, now)
	s.auditChannel(pair.peer, "offer", "accepted")
	_ = s.sendKept(pipe, pair.group, wire[:]) // a lost accept is sent again when the offer is
	return ""
}

// channelNotAfter is the latest a channel with peer may live: the
// earliest NotAfter of the peer's credential chain and this peer's own —
// credential expiry honoured as xdsig.VerifyCache honours it.
func (s *SecureClient) channelNotAfter(peer *xdsig.Result) time.Time {
	own, broker := s.credentials()
	if own == nil || broker == nil {
		return time.Time{} // no chain of its own, no channel
	}
	_, notAfter := cred.ChainWindow(peer.Chain)
	if _, ours := cred.ChainWindow([]*cred.Credential{own, broker}); ours.Before(notAfter) {
		notAfter = ours
	}
	return notAfter
}

// channelEnds names the two ends of a channel between this peer and
// peer, whose certified key is peerKey, in group: initiating says which
// end this peer is. The ephemeral shares are the caller's to add.
func (s *SecureClient) channelEnds(peerKey *keys.PublicKey, peer keys.PeerID, group string, initiating bool) (channelEnds, error) {
	e := channelEnds{initiator: peer, responder: s.PeerID(), group: group}
	own := s.kp.Public()
	var err error
	if e.initiatorFP, err = peerKey.Fingerprint(); err != nil {
		return e, err
	}
	if e.responderFP, err = own.Fingerprint(); err != nil {
		return e, err
	}
	responderKey := own
	if initiating {
		e.initiator, e.responder = e.responder, e.initiator
		e.initiatorFP, e.responderFP = e.responderFP, e.initiatorFP
		responderKey = peerKey
	}
	e.responderStatic, _ = responderKey.AgreementShare()
	return e, nil
}

// refuseFrame answers a frame for a channel this peer does not hold: an
// unsigned refusal to the frame's claimed source, at most one a second
// per channel. It proves nothing and asks for nothing but the paper's
// primitive (handleRefusal), so it needs no signature.
func (s *SecureClient) refuseFrame(from keys.PeerID, group string, frame frameRef, now time.Time) {
	if !s.chans.mayRefuse(frame.id, now) {
		return
	}
	s.attachChannelMetrics()
	_ = s.sendSecure(groupPipe(from, group), group, framePrefix, func(dst []byte) ([]byte, error) { // best effort
		return appendFrameRef(dst, ModeRefusal, frame), nil
	})
}

// handleRefusal is the initiator's reaction to a refusal that claims to
// come from peer: if it names this peer's channel to peer, the channel is
// dropped, and if it names the last frame sent, that frame's message goes
// out again as an envelope — signed, wrapped, and saying which frame it
// replaces, so that a peer which did open the frame drops it. Whoever
// sent the refusal has bought the paper's primitive, and nothing else.
func (s *SecureClient) handleRefusal(peer keys.PeerID, group string, frame frameRef, now time.Time) {
	text, resend, dropped := s.chans.refused(pairKey{peer, group}, frame, now)
	if !dropped {
		return
	}
	s.auditChannel(peer, "refusal", "channel dropped")
	if !resend {
		return
	}
	s.chans.fallbacks.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reason := "sent again as an envelope"
	if err := s.sendEnvelope(ctx, peer, group, text, appendFrameRef(nil, ModeRefusal, frame)[1:]); err != nil {
		reason = "failed: " + err.Error()
	}
	s.auditChannel(peer, "fallback", reason)
}

// attachChannelMetrics puts this client's channels on the registry its
// Client is bound to, the first time there is something to count: a
// client that never makes or answers an offer attaches nothing.
func (s *SecureClient) attachChannelMetrics() {
	if !s.chanMetrics.CompareAndSwap(false, true) {
		return
	}
	attached := s.AttachCollectors(func(reg *telemetry.Registry) (detach func()) {
		t := &s.chans
		detaches := []func(){
			reg.GaugeSum(ChannelsOpenMetric, "Session channels held by clients, both directions, unanswered offers included.").
				Attach(func() float64 { return float64(t.open()) }),
			reg.CounterSum(ChannelEstablishedMetric, "Session-channel handshakes completed, counted at each end.").
				Attach(func() float64 { return float64(t.established.Load()) }),
			reg.CounterSum(ChannelFallbacksMetric, "Messages sent again as envelopes after their channel frame was refused.").
				Attach(func() float64 { return float64(t.fallbacks.Load()) }),
			reg.CounterSum(ChannelRefusalsSentMetric, "Refusals sent for frames of channels not held.").
				Attach(func() float64 { return float64(t.refusalsSent.Load()) }),
		}
		return func() {
			for _, d := range detaches {
				d()
			}
		}
	})
	if !attached {
		s.chanMetrics.Store(false) // no registry bound yet: try again next time
	}
}

// Registry names of the session-channel metrics, summed over the clients
// bound to the registry.
const (
	ChannelsOpenMetric        = "client_channels_open"
	ChannelEstablishedMetric  = "client_channel_established_total"
	ChannelFallbacksMetric    = "client_channel_fallbacks_total"
	ChannelRefusalsSentMetric = "client_channel_refusals_sent_total"
)

// senderKeyPatient resolves the sender's certified key for an inbound
// push, absorbing transient lookup failures. This is the one surface
// where giving up loses data permanently: by the time the envelope is
// in hand the relay has already acked the delivery and retired the
// slice, so a lookup that fails because this client is mid-resume
// (not-logged-in for a beat while the heartbeat loop re-establishes
// the session) or because the lookup frame itself was lost must not
// condemn the message. Each attempt is individually bounded — a
// silently dropped frame costs one openLookupTimeout, not the whole
// openPatience — and a refused verdict (untrusted issuer, bad signature,
// a signer that does not own the advertisement) ends the wait at once:
// the delivery is refused with its alert, and the refused copy has left
// the cache (peerVerdict), so the sender's next delivery asks the broker.
// A lapsed chain is asked again.
const (
	openPatience       = 10 * time.Second
	openLookupAttempts = 4
	openLookupTimeout  = 1 * time.Second
)

func (s *SecureClient) senderKeyPatient(sender keys.PeerID, group string) (*xdsig.Result, error) {
	// The steady state asks the cache alone: the sender's advertisement is
	// held and so is its verdict, and a delivery builds no context and arms
	// no timer. The verdict is the one every attempt reaches (peerVerdict,
	// at this node's now). Anything else — no advertisement held, or one
	// whose chain lapsed — is asked again below, with the patience a
	// broker lookup needs, from the first attempt.
	if pipeAdv, doc, ok := s.CachedPipe(sender, group); ok {
		if res, err := s.peerVerdict(sender, pipeAdv, doc); err == nil || refused(err) {
			return res, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), openPatience)
	defer cancel()
	pol := backoff.Policy{Base: 100 * time.Millisecond, Cap: 800 * time.Millisecond}
	var res *xdsig.Result
	_, err := retry(ctx, openLookupAttempts, openLookupTimeout, ErrSenderUnknown, func(ctx context.Context) error {
		var err error
		res, _, err = s.verifiedPeer(ctx, sender, group)
		return err
	}, func(i int, err error) (time.Duration, error) {
		if class, _ := classify(err); class == classTerminal || refused(err) {
			return 0, err
		}
		return pol.Delay(i, nil), nil
	})
	return res, err
}
