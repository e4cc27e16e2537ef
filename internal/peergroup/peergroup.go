// Package peergroup models JXTA-Overlay's overlapping peer groups: end
// users are organized into groups by the broker, and only members of the
// same group may interact. A peer may belong to any number of groups at
// once.
package peergroup

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"jxtaoverlay/internal/keys"
)

// Member is one peer's membership in a group.
type Member struct {
	PeerID keys.PeerID
	Name   string
	Joined time.Time
}

// Group is a named peer group.
type Group struct {
	ID      string
	Name    string
	Desc    string
	Creator keys.PeerID

	mu      sync.RWMutex
	members map[keys.PeerID]Member
}

// Members returns the current members sorted by peer ID.
func (g *Group) Members() []Member {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]Member, 0, len(g.members))
	for _, m := range g.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PeerID < out[j].PeerID })
	return out
}

// AppendMemberIDs appends the members' peer IDs to dst, in no order,
// and returns the extended slice: no allocation when dst has room.
func (g *Group) AppendMemberIDs(dst []keys.PeerID) []keys.PeerID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for id := range g.members {
		dst = append(dst, id)
	}
	return dst
}

// Has reports whether the peer is a member.
func (g *Group) Has(id keys.PeerID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.members[id]
	return ok
}

// Size returns the member count.
func (g *Group) Size() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.members)
}

// Errors reported by the registry.
var (
	ErrExists    = errors.New("peergroup: group already exists")
	ErrNotFound  = errors.New("peergroup: group not found")
	ErrNotMember = errors.New("peergroup: peer is not a member")
)

// Registry is the broker-side (and client-side mirror) group table.
type Registry struct {
	mu     sync.RWMutex
	groups map[string]*Group // by name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{groups: make(map[string]*Group)}
}

// Create registers a new group.
func (r *Registry) Create(id, name, desc string, creator keys.PeerID) (*Group, error) {
	if name == "" {
		return nil, errors.New("peergroup: empty group name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.groups[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	g := &Group{
		ID:      id,
		Name:    name,
		Desc:    desc,
		Creator: creator,
		members: make(map[keys.PeerID]Member),
	}
	r.groups[name] = g
	return g, nil
}

// Ensure returns the named group, creating it if needed.
func (r *Registry) Ensure(id, name, desc string, creator keys.PeerID) *Group {
	if g, err := r.Get(name); err == nil {
		return g
	}
	g, err := r.Create(id, name, desc, creator)
	if err != nil {
		// Lost a race; the group now exists.
		g, _ = r.Get(name)
	}
	return g
}

// Get returns the named group.
func (r *Registry) Get(name string) (*Group, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	g, ok := r.groups[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return g, nil
}

// Join adds a member to the named group.
func (r *Registry) Join(name string, id keys.PeerID, humanName string) error {
	g, err := r.Get(name)
	if err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.members[id] = Member{PeerID: id, Name: humanName, Joined: time.Now()}
	return nil
}

// Leave removes a member from the named group.
func (r *Registry) Leave(name string, id keys.PeerID) error {
	g, err := r.Get(name)
	if err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.members[id]; !ok {
		return fmt.Errorf("%w: %s in %q", ErrNotMember, id, name)
	}
	delete(g.members, id)
	return nil
}

// LeaveAll removes the peer from every group (client disconnect).
func (r *Registry) LeaveAll(id keys.PeerID) {
	r.mu.RLock()
	groups := make([]*Group, 0, len(r.groups))
	for _, g := range r.groups {
		groups = append(groups, g)
	}
	r.mu.RUnlock()
	for _, g := range groups {
		g.mu.Lock()
		delete(g.members, id)
		g.mu.Unlock()
	}
}

// List returns all group names, sorted.
func (r *Registry) List() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.groups))
	for name := range r.groups {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// GroupsOf returns the names of every group the peer belongs to, sorted
// (overlapping membership).
func (r *Registry) GroupsOf(id keys.PeerID) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for name, g := range r.groups {
		if g.Has(id) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// SameGroup reports whether two peers share at least one group — the
// JXTA-Overlay interaction precondition.
func (r *Registry) SameGroup(a, b keys.PeerID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, g := range r.groups {
		if g.Has(a) && g.Has(b) {
			return true
		}
	}
	return false
}
