package client

import (
	"errors"
	"time"

	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/telemetry"
	"jxtaoverlay/internal/trace"
)

// DeliveryLatencyMetric is the registry name of the client-side
// delivery latency histogram. It is the library-owned replacement for
// the scenario harness's old body-stamp parser: production peers and
// the scenario driver now export the SAME quantiles from the same
// instrument.
const DeliveryLatencyMetric = "client_delivery_latency_ms"

// Registry names of the discovery-cache metrics: records held and
// expired records swept, summed over the clients bound to the registry.
const (
	DiscoveryRecordsMetric = "client_discovery_records"
	DiscoverySweptMetric   = "client_discovery_swept_total"
)

// BindTelemetry registers the client's delivery-latency histogram on
// reg and starts feeding it, and attaches its discovery cache to the
// registry's record gauge and sweep counter (pull collectors: nothing
// is counted until a snapshot asks; Close detaches them). Registration
// is idempotent by name, so every client bound to one registry shares
// one histogram — the process-wide delivery quantiles — and one pair of
// cache metrics. Safe to call concurrently with deliveries.
func (c *Client) BindTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.delivery.Store(reg.Histogram(DeliveryLatencyMetric,
		"end-to-end secure delivery latency: signed seal time to local open (ms)",
		telemetry.LatencyBucketsMS))
	cache := c.ctl.Cache()
	records := reg.GaugeSum(DiscoveryRecordsMetric,
		"Advertisement records held in client discovery caches.").
		Attach(func() float64 { return float64(cache.Len()) })
	swept := reg.CounterSum(DiscoverySweptMetric,
		"Expired advertisement records swept from client discovery caches.").
		Attach(func() float64 { return float64(cache.Swept()) })
	c.mu.Lock()
	prev := c.unbind
	c.reg = reg
	c.unbind = func() { records(); swept() }
	c.mu.Unlock()
	if prev != nil {
		prev()
	}
}

// AttachCollectors lets the security extension put pull collectors of
// its own on the registry this client is bound to: attach runs at once,
// and the detach it returns joins what Close detaches. It reports false,
// without calling attach, when no registry is bound (or the client is
// closed) — so an extension can attach when it first has something to
// count, and a client that never does pays nothing.
func (c *Client) AttachCollectors(attach func(reg *telemetry.Registry) (detach func())) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reg == nil {
		return false
	}
	prev, detach := c.unbind, attach(c.reg)
	c.unbind = func() { prev(); detach() }
	return true
}

// ObserveDelivery records one end-to-end delivery latency. The
// security extension calls it with (now - opened.SentAt) — the signed
// seal timestamp — after a successful open. Negative skew clamps to
// zero rather than polluting the histogram.
func (c *Client) ObserveDelivery(lat time.Duration) {
	h := c.delivery.Load()
	if h == nil {
		return
	}
	if lat < 0 {
		lat = 0
	}
	h.Observe(float64(lat) / float64(time.Millisecond))
}

// SetTracer installs a lifecycle span recorder. Client primitives then
// mint a trace ID per broker call (unless the caller pre-assigned one
// on the message) and record send-stage spans; the security extension
// rides the same recorder for seal/open stages.
func (c *Client) SetTracer(r *trace.Recorder) {
	if r == nil {
		return
	}
	c.tracer.Store(r)
}

// Tracer returns the installed recorder (nil when tracing is off).
func (c *Client) Tracer() *trace.Recorder { return c.tracer.Load() }

// traceMsg stamps msg with a trace ID for the wire: the pre-assigned
// one if the caller (e.g. the relay upload path, which opened a seal
// span first) already set ElemTrace, else a freshly minted ID. Returns
// 0 with tracing disabled.
func (c *Client) traceMsg(msg *endpoint.Message) uint64 {
	tr := c.tracer.Load()
	if tr == nil {
		return 0
	}
	if s, ok := msg.GetString(proto.ElemTrace); ok {
		return trace.ParseID(s)
	}
	id := tr.NewID()
	msg.AddString(proto.ElemTrace, trace.FormatID(id))
	return id
}

// callOutcome maps a broker-call error to a span outcome token.
func callOutcome(err error) trace.Outcome {
	switch {
	case err == nil:
		return trace.OutcomeOK
	case errors.Is(err, ErrRateLimited):
		return trace.OutcomeRateLimited
	case errors.Is(err, ErrRelayQuota):
		return trace.OutcomeQuota
	default:
		return trace.OutcomeError
	}
}
