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
	ErrUnknownTask = errors.New("taskexec: unknown task")
	ErrExecFailed  = errors.New("taskexec: execution failed")
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

// Service exposes a registry over the network to anyone who asks — the
// original JXTA-Overlay behaviour the paper flags as dangerous. The
// secure form is core's EnableSecureTasks.
type Service struct {
	ep  *endpoint.Service
	reg *Registry
}

// New attaches the task service to an endpoint.
func New(ep *endpoint.Service, reg *Registry) *Service {
	s := &Service{ep: ep, reg: reg}
	ep.RegisterHandler(proto.TaskService, s.handle)
	return s
}

func (s *Service) handle(_ keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	op, _ := msg.GetString(proto.ElemOp)
	if op != proto.OpTaskExec {
		return proto.Fail(proto.ErrUnknownOp)
	}
	name, _ := msg.GetString(proto.ElemTaskName)
	argsPacked, _ := msg.GetString(proto.ElemTaskArgs)
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
