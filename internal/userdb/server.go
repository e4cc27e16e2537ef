package userdb

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
)

// ServiceName is the endpoint service the database server listens on.
const ServiceName = "overlay:db"

// Wire element names: a query is one signed request sealed to the
// server (proto.KindQuery), an answer one signed request in clear
// (proto.KindAnswer).
const (
	elemEnvelope = "db:env"
	elemBody     = "db:body"
)

// Remote-protocol errors.
var (
	ErrUnauthorized = errors.New("userdb: caller is not an authorized broker")
	ErrProtocol     = errors.New("userdb: malformed database request")
	ErrServerAuth   = errors.New("userdb: response not authentic")
)

// Server exposes a Store on the network under the paper's trust
// topology: every query must be signed by a broker holding an
// administrator-issued credential, for this server, and then sealed to the
// agreement key the server's credential certifies. Its time is its
// endpoint's.
type Server struct {
	store   *Store
	ep      *endpoint.Service
	kp      *keys.KeyPair
	trust   *cred.TrustStore
	queries *proto.RequestGuard // admits each query once: the replay defence
}

// NewServer registers the database service on the given endpoint. kp is
// the key pair of the server's credential: queries are sealed to the
// agreement key it certifies, and answers signed with it.
func NewServer(ep *endpoint.Service, store *Store, kp *keys.KeyPair, trust *cred.TrustStore) *Server {
	s := &Server{store: store, ep: ep, kp: kp, trust: trust, queries: proto.NewRequestGuard(ep.PeerID())}
	ep.RegisterHandler(ServiceName, s.handle)
	return s
}

// handle answers a query with a signed answer for the peer that sent it:
// the groups, or the error, under the query's nonce (zeros when the query
// was not admitted).
func (s *Server) handle(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	nonce, groups, err := s.process(msg)
	var errText []byte
	if err != nil {
		errText = []byte(err.Error())
	}
	answer, err := proto.AppendRequest(nil, s.kp, from, proto.KindAnswer, s.ep.Now(), nonce, errText, []byte(strings.Join(groups, ",")))
	if err != nil {
		return nil
	}
	return endpoint.NewMessage().Add(elemBody, answer)
}

// process opens and runs one query: it returns the query's nonce once
// admitted, and the store's answer.
func (s *Server) process(msg *endpoint.Message) (nonce [proto.NonceSize]byte, groups []string, err error) {
	// 1. Open the envelope: only the database can.
	envBytes, _ := msg.Get(elemEnvelope)
	env, _ := keys.ParseEnvelope(envBytes)
	body, err := s.kp.Decrypt(env)
	if err != nil {
		return nonce, nil, ErrProtocol
	}
	// 2. The query: signed for this server under an administrator-issued
	// broker credential, fresh, and not seen before.
	now := s.ep.Now()
	q, err := s.queries.Open(body, proto.KindQuery, now, func(r *proto.Request) (*keys.PublicKey, error) {
		caller, err := cred.Parse(r.Field(proto.QueryCred))
		if err != nil || s.trust.Verify(caller, now) != nil || caller.Role != cred.RoleBroker {
			return nil, ErrUnauthorized
		}
		return caller.Key, nil
	})
	if err != nil {
		return nonce, nil, err
	}
	// 3. Execute.
	user := string(q.Field(proto.QueryUser))
	switch op := string(q.Field(proto.QueryOp)); op {
	case "auth":
		groups, err = s.store.Authenticate(user, string(q.Field(proto.QueryPass)))
	case "groups":
		if groups, err = s.store.Groups(user); err != nil {
			err = ErrNoUser
		}
	default:
		err = fmt.Errorf("%w: op %q", ErrProtocol, op)
	}
	return q.Nonce, groups, err
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

// call sends one query, signed for the server and then sealed to it, so
// that nothing on the link can test a password guess against it.
func (c *Client) call(ctx context.Context, op, user, pass string) ([]string, error) {
	credRaw, err := c.brokerCred.Bytes()
	if err != nil {
		return nil, err
	}
	nonce := proto.NewNonce()
	query, err := proto.AppendRequest(make([]byte, keys.EnvelopePrefix), c.kp, c.server, proto.KindQuery, c.ep.Now(), nonce,
		credRaw, []byte(op), []byte(user), []byte(pass))
	if err != nil {
		return nil, err
	}
	env, err := keys.SealEnvelope(query, 0, c.serverCred.Key)
	if err != nil {
		return nil, err
	}
	resp, err := c.ep.Request(ctx, c.server, ServiceName, endpoint.NewMessage().Add(elemEnvelope, env), 0)
	if err != nil {
		return nil, err
	}
	return c.readAnswer(resp, nonce)
}

// readAnswer checks an answer is the server's, made for this broker, and
// — when it carries groups — for the query under nonce.
func (c *Client) readAnswer(msg *endpoint.Message, nonce [proto.NonceSize]byte) ([]string, error) {
	raw, _ := msg.Get(elemBody)
	a, err := proto.NewRequestGuard(c.ep.PeerID()).Open(raw, proto.KindAnswer, c.ep.Now(), func(*proto.Request) (*keys.PublicKey, error) {
		return c.serverCred.Key, nil
	})
	if err != nil {
		return nil, ErrServerAuth
	}
	switch text := string(a.Field(proto.AnswerErr)); text {
	case "":
		if a.Nonce != nonce { // the nonce echo binds an answer to our query
			return nil, ErrServerAuth
		}
		if groups := a.Field(proto.AnswerGroups); len(groups) > 0 {
			return strings.Split(string(groups), ","), nil
		}
		return nil, nil
	case ErrAuth.Error():
		return nil, ErrAuth
	case ErrNoUser.Error():
		return nil, ErrNoUser
	default:
		return nil, fmt.Errorf("userdb: server error: %s", text)
	}
}
