package telemetry

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// Handler returns an http.Handler exposing the registry:
//
//	GET /metrics       Prometheus-style text exposition
//	GET /metrics.json  JSON array of Samples (admin metrics consumes this)
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
	r.mu.Lock()
	for pattern, h := range r.routes {
		mux.Handle(pattern, h)
	}
	r.mu.Unlock()
	return mux
}

// Handle mounts an extra route on the registry's HTTP surface — the
// way /debug/traces rides the same server as /metrics. Must be called
// before Handler/Serve; routes added later are not picked up by an
// already-built mux.
func (r *Registry) Handle(pattern string, h http.Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.routes == nil {
		r.routes = make(map[string]http.Handler)
	}
	r.routes[pattern] = h
}

// Server is a running metrics endpoint.
type Server struct {
	srv  *http.Server
	addr string
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.addr }

// Close shuts the endpoint down.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// Serve exposes the registry on addr (e.g. "127.0.0.1:9090", or ":0"
// for an ephemeral port) and returns once the listener is bound, so
// callers can read Addr immediately.
func (r *Registry) Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	// Explicit read-header AND write deadlines: the endpoint serves
	// point-in-time snapshots, so a slow or stalled scraper must never
	// pin a handler goroutine (or the response buffer) indefinitely.
	srv := &http.Server{
		Handler:           r.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      10 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }()
	return &Server{srv: srv, addr: ln.Addr().String()}, nil
}

// RenderText formats fetched samples the way WriteText renders a live
// registry (without help text, which does not travel in JSON).
func RenderText(w io.Writer, samples []Sample) error {
	for _, s := range samples {
		if s.Kind == "histogram" {
			if _, err := fmt.Fprintf(w, "%-52s count=%d sum=%g\n", s.Name, s.Count, s.Sum); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%-52s %g\n", s.Name, s.Value); err != nil {
			return err
		}
	}
	return nil
}
