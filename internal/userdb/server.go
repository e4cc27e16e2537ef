package userdb

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/lru"
	"jxtaoverlay/internal/xmldoc"
)

// ServiceName is the endpoint service the database server listens on.
const ServiceName = "overlay:db"

// Wire element names.
const (
	elemEnvelope = "db:env"
	elemSig      = "db:sig"
	elemCred     = "db:cred"
	elemBody     = "db:body"
)

// maxSkew bounds the accepted request timestamp drift.
const maxSkew = 2 * time.Minute

// nonceCapacity bounds the request nonces remembered at once: one per
// login or group lookup a broker forwards inside 2·maxSkew, so 4,096 is
// 17 a second sustained — the idempotency window's bound, for the same
// kind of traffic.
const nonceCapacity = 4096

// Remote-protocol errors.
var (
	ErrUnauthorized = errors.New("userdb: caller is not an authorized broker")
	ErrProtocol     = errors.New("userdb: malformed database request")
	ErrReplay       = errors.New("userdb: replayed request")
	ErrServerAuth   = errors.New("userdb: response not authentic")
)

// Server exposes a Store on the network under the paper's trust
// topology: every request must be sealed to the agreement key the
// server's credential certifies and signed by a broker holding an
// administrator-issued credential. Its time
// is its endpoint's.
type Server struct {
	store *Store
	ep    *endpoint.Service
	kp    *keys.KeyPair
	crd   *cred.Credential
	trust *cred.TrustStore

	mu sync.Mutex
	// seen holds each admitted request nonce for 2·maxSkew: as long as a
	// replay could still pass the timestamp check, whichever way the
	// broker's clock is off. Only a broker holding an administrator-issued
	// credential gets this far, so the bound is housekeeping, not a
	// defence against strangers. Full, the nonce closest to expiry goes —
	// the least remaining exposure — and is counted.
	seen        lru.Window[string, struct{}]
	evictedLive uint64
}

// NewServer registers the database service on the given endpoint.
func NewServer(ep *endpoint.Service, store *Store, kp *keys.KeyPair, serverCred *cred.Credential, trust *cred.TrustStore) *Server {
	s := &Server{
		store: store,
		ep:    ep,
		kp:    kp,
		crd:   serverCred,
		trust: trust,
		seen:  lru.NewWindow[string, struct{}](nonceCapacity),
	}
	ep.RegisterHandler(ServiceName, s.handle)
	return s
}

func (s *Server) handle(_ keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	resp, err := s.process(msg)
	if err != nil {
		resp = &response{OK: false, Err: err.Error()}
	}
	out, mErr := s.marshalResponse(resp)
	if mErr != nil {
		return nil
	}
	return out
}

type request struct {
	Op        string
	User      string
	Pass      string
	Group     string
	Broker    keys.PeerID
	Nonce     string
	Timestamp time.Time
}

type response struct {
	OK     bool
	Err    string
	Groups []string
	Nonce  string
}

func (s *Server) process(msg *endpoint.Message) (*response, error) {
	envBytes, ok := msg.Get(elemEnvelope)
	if !ok {
		return nil, ErrProtocol
	}
	sig, ok := msg.Get(elemSig)
	if !ok {
		return nil, ErrProtocol
	}
	credBytes, ok := msg.Get(elemCred)
	if !ok {
		return nil, ErrProtocol
	}

	// 1. Authenticate the caller: administrator-issued broker credential.
	credDoc, err := xmldoc.ParseCanonical(credBytes)
	if err != nil {
		return nil, ErrProtocol
	}
	callerCred, err := cred.Parse(credDoc)
	if err != nil {
		return nil, ErrProtocol
	}
	now := s.ep.Now()
	if err := s.trust.Verify(callerCred, now); err != nil {
		return nil, ErrUnauthorized
	}
	if callerCred.Role != cred.RoleBroker {
		return nil, ErrUnauthorized
	}

	// 2. Open the envelope (only the DB can) and check the signature.
	env, err := keys.ParseEnvelope(envBytes)
	if err != nil {
		return nil, ErrProtocol
	}
	body, err := s.kp.Decrypt(env)
	if err != nil {
		return nil, ErrProtocol
	}
	if err := callerCred.Key.Verify(body, sig); err != nil {
		return nil, ErrUnauthorized
	}

	req, err := parseRequest(body)
	if err != nil {
		return nil, err
	}
	if req.Broker != callerCred.Subject {
		return nil, ErrUnauthorized
	}

	// 3. Freshness and replay checks.
	if d := now.Sub(req.Timestamp); d > maxSkew || d < -maxSkew {
		return nil, fmt.Errorf("%w: stale timestamp", ErrProtocol)
	}
	if err := s.checkNonce(req.Nonce, now); err != nil {
		return nil, err
	}

	// 4. Execute.
	switch req.Op {
	case "auth":
		groups, err := s.store.Authenticate(req.User, req.Pass)
		if err != nil {
			return &response{OK: false, Err: "auth", Nonce: req.Nonce}, nil
		}
		return &response{OK: true, Groups: groups, Nonce: req.Nonce}, nil
	case "groups":
		groups, err := s.store.Groups(req.User)
		if err != nil {
			return &response{OK: false, Err: "nouser", Nonce: req.Nonce}, nil
		}
		return &response{OK: true, Groups: groups, Nonce: req.Nonce}, nil
	default:
		return nil, fmt.Errorf("%w: op %q", ErrProtocol, req.Op)
	}
}

func (s *Server) checkNonce(nonce string, now time.Time) error {
	if nonce == "" {
		return ErrProtocol
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.seen.Get(nonce, now); dup {
		return ErrReplay
	}
	// nonce is a view of the decrypted request, password included: the
	// table keeps a copy, not the request.
	if s.seen.Put(strings.Clone(nonce), struct{}{}, now.Add(2*maxSkew), now) {
		s.evictedLive++
	}
	return nil
}

// NonceEvictions reports how many request nonces the server gave up while
// a replay of their request could still pass the timestamp check, to make
// room in a full table (compare core.ReplayEvictions).
func (s *Server) NonceEvictions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictedLive
}

func (s *Server) marshalResponse(r *response) (*endpoint.Message, error) {
	doc := xmldoc.New("DBResponse", "")
	if r.OK {
		doc.AddText("OK", "1")
	} else {
		doc.AddText("OK", "0")
	}
	doc.AddText("Err", r.Err)
	doc.AddText("Groups", strings.Join(r.Groups, ","))
	doc.AddText("Nonce", r.Nonce)
	body := doc.Canonical()
	sig, err := s.kp.Sign(body)
	if err != nil {
		return nil, err
	}
	msg := endpoint.NewMessage()
	msg.Add(elemBody, body)
	msg.Add(elemSig, sig)
	return msg, nil
}

func parseRequest(body []byte) (*request, error) {
	doc, err := xmldoc.ParseCanonical(body)
	if err != nil || doc.Name != "DBRequest" {
		return nil, ErrProtocol
	}
	ts, err := time.Parse(time.RFC3339Nano, doc.ChildText("Timestamp"))
	if err != nil {
		return nil, ErrProtocol
	}
	return &request{
		Op:        doc.ChildText("Op"),
		User:      doc.ChildText("User"),
		Pass:      doc.ChildText("Pass"),
		Group:     doc.ChildText("Group"),
		Broker:    keys.PeerID(doc.ChildText("Broker")),
		Nonce:     doc.ChildText("Nonce"),
		Timestamp: ts,
	}, nil
}

// Client is the broker-side handle to the remote database.
type Client struct {
	ep         *endpoint.Service
	server     keys.PeerID
	kp         *keys.KeyPair
	brokerCred *cred.Credential
	serverCred *cred.Credential
}

// NewClient builds a database client for a broker. serverCred is the
// database's administrator-issued credential, provisioned at deployment,
// used to authenticate responses.
func NewClient(ep *endpoint.Service, server keys.PeerID, kp *keys.KeyPair, brokerCred, serverCred *cred.Credential) *Client {
	return &Client{ep: ep, server: server, kp: kp, brokerCred: brokerCred, serverCred: serverCred}
}

// Authenticate checks a username/password pair against the central
// database and returns the user's groups.
func (c *Client) Authenticate(ctx context.Context, username, password string) ([]string, error) {
	return c.call(ctx, "auth", username, password)
}

// Groups fetches the user's group memberships.
func (c *Client) Groups(ctx context.Context, username string) ([]string, error) {
	return c.call(ctx, "groups", username, "")
}

func (c *Client) call(ctx context.Context, op, user, pass string) ([]string, error) {
	nonceBytes, err := keys.RandomBytes(16)
	if err != nil {
		return nil, err
	}
	nonce := hex.EncodeToString(nonceBytes)

	doc := xmldoc.New("DBRequest", "")
	doc.AddText("Op", op)
	doc.AddText("User", user)
	doc.AddText("Pass", pass)
	doc.AddText("Broker", string(c.brokerCred.Subject))
	doc.AddText("Nonce", nonce)
	doc.AddText("Timestamp", c.ep.Now().UTC().Format(time.RFC3339Nano))
	body := doc.Canonical()

	sig, err := c.kp.Sign(body)
	if err != nil {
		return nil, err
	}
	env, err := c.serverCred.Key.Encrypt(body)
	if err != nil {
		return nil, err
	}
	credDoc, err := c.brokerCred.Document()
	if err != nil {
		return nil, err
	}

	msg := endpoint.NewMessage()
	msg.Add(elemEnvelope, env.Bytes())
	msg.Add(elemSig, sig)
	msg.Add(elemCred, credDoc.Canonical())

	resp, err := c.ep.Request(ctx, c.server, ServiceName, msg)
	if err != nil {
		return nil, err
	}
	return c.parseResponse(resp, nonce)
}

func (c *Client) parseResponse(msg *endpoint.Message, wantNonce string) ([]string, error) {
	body, ok := msg.Get(elemBody)
	if !ok {
		return nil, ErrProtocol
	}
	sig, ok := msg.Get(elemSig)
	if !ok {
		return nil, ErrProtocol
	}
	if err := c.serverCred.Key.Verify(body, sig); err != nil {
		return nil, ErrServerAuth
	}
	doc, err := xmldoc.ParseCanonical(body)
	if err != nil || doc.Name != "DBResponse" {
		return nil, ErrProtocol
	}
	if doc.ChildText("OK") == "1" {
		// The nonce echo binds this response to our request.
		if doc.ChildText("Nonce") != wantNonce {
			return nil, ErrServerAuth
		}
		groups := doc.ChildText("Groups")
		if groups == "" {
			return nil, nil
		}
		return strings.Split(groups, ","), nil
	}
	switch doc.ChildText("Err") {
	case "auth":
		return nil, ErrAuth
	case "nouser":
		return nil, ErrNoUser
	default:
		return nil, fmt.Errorf("userdb: server error: %s", doc.ChildText("Err"))
	}
}
