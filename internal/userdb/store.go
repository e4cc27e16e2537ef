// Package userdb implements JXTA-Overlay's central database: the single
// entity storing user configuration (username, password and group
// membership). Only brokers may access it, to check end-user
// authentication attempts and organize users into groups; an
// administrator registers users out of band.
//
// The store keeps salted PBKDF2 password hashes, never plaintext. The
// remote half of the package (server.go) exposes the store over the
// simulated network with the trust topology the paper assumes: requests
// are accepted only from brokers holding administrator-issued
// credentials, over an encrypted, mutually signed exchange (the paper's
// "secure backend database connection").
package userdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
)

// Password hashing parameters. Iterations are modest because every login
// benchmark pays this cost; the parameter is recorded with each record
// so it can be raised without invalidating old hashes.
const (
	defaultIterations = 2048
	saltLen           = 16
	hashLen           = 32
)

// Errors returned by the store.
var (
	// ErrAuth is deliberately uniform across "no such user", "bad
	// password" and "disabled" so the store does not leak which part
	// failed.
	ErrAuth   = errors.New("userdb: authentication failed")
	ErrExists = errors.New("userdb: user already exists")
	ErrNoUser = errors.New("userdb: no such user")
	// ErrUsername refuses a username the peer roster cannot carry: empty,
	// or holding '|' or a control character (proto.ValidUsername).
	ErrUsername = errors.New("userdb: invalid username")
)

// User is one registered end user.
type User struct {
	Username   string   `json:"username"`
	Salt       []byte   `json:"salt"`
	Hash       []byte   `json:"hash"`
	Iterations int      `json:"iterations"`
	Groups     []string `json:"groups"`
	Disabled   bool     `json:"disabled"`
}

// Store is the in-memory (optionally file-backed) user database.
type Store struct {
	mu    sync.RWMutex
	users map[string]*User
	iters int
}

// NewStore returns an empty store with default hashing parameters.
func NewStore() *Store { return NewStoreIter(defaultIterations) }

// NewStoreIter returns an empty store hashing with the given PBKDF2
// iteration count.
func NewStoreIter(iterations int) *Store {
	if iterations < 1 {
		iterations = 1
	}
	return &Store{users: make(map[string]*User), iters: iterations}
}

// Register adds a user with the given password and initial groups.
func (s *Store) Register(username, password string, groups ...string) error {
	if !proto.ValidUsername(username) {
		return fmt.Errorf("%w: %q", ErrUsername, username)
	}
	salt, err := keys.RandomBytes(saltLen)
	if err != nil {
		return err
	}
	u := &User{
		Username:   username,
		Salt:       salt,
		Hash:       keys.PBKDF2([]byte(password), salt, s.iters, hashLen),
		Iterations: s.iters,
		Groups:     append([]string(nil), groups...),
	}
	sort.Strings(u.Groups)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.users[username]; ok {
		return fmt.Errorf("%w: %q", ErrExists, username)
	}
	s.users[username] = u
	return nil
}

// Authenticate checks a username/password pair and returns the user's
// groups. All failures return ErrAuth.
func (s *Store) Authenticate(username, password string) ([]string, error) {
	// The record is copied under the read lock and hashed against outside it.
	s.mu.RLock()
	rec, ok := s.users[username]
	var u User
	if ok {
		u = rec.snapshot()
	}
	s.mu.RUnlock()
	if !ok {
		// Burn comparable time to avoid a trivial user-enumeration oracle.
		keys.PBKDF2([]byte(password), make([]byte, saltLen), s.iters, hashLen)
		return nil, ErrAuth
	}
	got := keys.PBKDF2([]byte(password), u.Salt, u.Iterations, hashLen)
	if !keys.ConstantTimeEqual(got, u.Hash) || u.Disabled {
		return nil, ErrAuth
	}
	return u.Groups, nil
}

// snapshot copies a record for reading after the store's lock, which the
// caller holds, is released: SetDisabled writes its fields under the
// write lock, and a caller may keep the groups it returns.
func (u *User) snapshot() User {
	c := *u
	c.Groups = slices.Clone(u.Groups)
	return c
}

// SetDisabled toggles the user's disabled flag.
func (s *Store) SetDisabled(username string, disabled bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.users[username]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoUser, username)
	}
	u.Disabled = disabled
	return nil
}

// Groups returns the user's group list.
func (s *Store) Groups(username string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	u, ok := s.users[username]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoUser, username)
	}
	return append([]string(nil), u.Groups...), nil
}

// Usernames lists all registered usernames, sorted.
func (s *Store) Usernames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.users))
	for name := range s.users {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Save writes the store as JSON.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	users := make([]User, 0, len(s.users))
	for _, u := range s.users {
		users = append(users, u.snapshot())
	}
	s.mu.RUnlock()
	sort.Slice(users, func(i, j int) bool { return users[i].Username < users[j].Username })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(users)
}

// Load replaces the store contents from JSON produced by Save.
func (s *Store) Load(r io.Reader) error {
	var users []*User
	if err := json.NewDecoder(r).Decode(&users); err != nil {
		return fmt.Errorf("userdb: load: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.users = make(map[string]*User, len(users))
	for _, u := range users {
		if !proto.ValidUsername(u.Username) || len(u.Salt) == 0 || len(u.Hash) == 0 || u.Iterations < 1 {
			return fmt.Errorf("userdb: load: malformed record %q", u.Username)
		}
		s.users[u.Username] = u
	}
	return nil
}

// SaveFile persists the store to a file with restrictive permissions.
func (s *Store) SaveFile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.Save(f)
}

// LoadFile restores the store from a file written by SaveFile.
func (s *Store) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.Load(f)
}
