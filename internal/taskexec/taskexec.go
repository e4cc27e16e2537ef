// Package taskexec implements the executable set of primitives: remote
// task submission and execution. The paper singles these out as the most
// security-sensitive primitives left for further work ("of special note
// are those of the executable set, related to remote code execution");
// internal/core wraps this service with the secure envelope.
//
// Tasks are registered Go functions, not OS processes: the substrate
// models JXTA-Overlay's remote-execution capability without giving the
// network arbitrary code execution on the host.
package taskexec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
)

// TaskFunc is one executable task.
type TaskFunc func(args []string) (string, error)

// argSep separates packed argument lists on the wire.
const argSep = "\x1f"

// Errors returned by the service.
var (
	ErrUnknownTask  = errors.New("taskexec: unknown task")
	ErrExecFailed   = errors.New("taskexec: execution failed")
	ErrUnauthorized = errors.New("taskexec: caller not authorized")
)

// Registry holds the locally executable tasks.
type Registry struct {
	mu    sync.RWMutex
	tasks map[string]TaskFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{tasks: make(map[string]TaskFunc)}
}

// Register installs a task under a name.
func (r *Registry) Register(name string, fn TaskFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tasks[name] = fn
}

// Get returns a registered task.
func (r *Registry) Get(name string) (TaskFunc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.tasks[name]
	return fn, ok
}

// Names lists registered task names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.tasks))
	for n := range r.tasks {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Run executes a task locally.
func (r *Registry) Run(name string, args []string) (string, error) {
	fn, ok := r.Get(name)
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownTask, name)
	}
	out, err := fn(args)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrExecFailed, err)
	}
	return out, nil
}

// Authorizer decides whether a remote caller may run a task. The default
// (nil) allows everyone — the original JXTA-Overlay behaviour the paper
// flags as dangerous.
type Authorizer func(from keys.PeerID, task string) error

// Service exposes a registry over the network.
type Service struct {
	ep  *endpoint.Service
	reg *Registry

	mu        sync.RWMutex
	authorize Authorizer
}

// New attaches the task service to an endpoint.
func New(ep *endpoint.Service, reg *Registry) *Service {
	s := &Service{ep: ep, reg: reg}
	ep.RegisterHandler(proto.TaskService, s.handle)
	return s
}

// Registry returns the backing registry.
func (s *Service) Registry() *Registry { return s.reg }

// SetAuthorizer installs the authorization policy.
func (s *Service) SetAuthorizer(a Authorizer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.authorize = a
}

func (s *Service) handle(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	op, _ := msg.GetString(proto.ElemOp)
	if op != proto.OpTaskExec {
		return proto.Fail(proto.ErrUnknownOp)
	}
	name, _ := msg.GetString(proto.ElemTaskName)
	argsPacked, _ := msg.GetString(proto.ElemTaskArgs)
	s.mu.RLock()
	auth := s.authorize
	s.mu.RUnlock()
	if auth != nil {
		if err := auth(from, name); err != nil {
			return proto.Fail("unauthorized")
		}
	}
	out, err := s.reg.Run(name, UnpackArgs(argsPacked))
	if err != nil {
		return proto.Fail(err.Error())
	}
	return proto.OK().AddString(proto.ElemTaskOut, out)
}

// Exec runs a task on a remote peer (the plain, unauthenticated
// primitive).
func (s *Service) Exec(ctx context.Context, peer keys.PeerID, task string, args []string) (string, error) {
	msg := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpTaskExec).
		AddString(proto.ElemTaskName, task).
		AddString(proto.ElemTaskArgs, PackArgs(args))
	resp, err := s.ep.Request(ctx, peer, proto.TaskService, msg, 0)
	if err != nil {
		return "", err
	}
	if ok, errToken := proto.IsOK(resp); !ok {
		return "", fmt.Errorf("taskexec: remote: %s", errToken)
	}
	out, _ := resp.GetString(proto.ElemTaskOut)
	return out, nil
}

// PackArgs flattens an argument list for the wire.
func PackArgs(args []string) string { return strings.Join(args, argSep) }

// UnpackArgs reverses PackArgs.
func UnpackArgs(packed string) []string {
	if packed == "" {
		return nil
	}
	return strings.Split(packed, argSep)
}
