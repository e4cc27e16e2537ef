package core

import (
	"runtime"

	"jxtaoverlay/internal/admission"
	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/relay"
	"jxtaoverlay/internal/telemetry"
	"jxtaoverlay/internal/xmldoc"
)

// RegisterBrokerTelemetry wires a broker deployment's counters into a
// telemetry registry as pull collectors: nothing here touches a hot
// path. Every subsystem already keeps its own cheap atomics (or derives
// the number on demand), and the closures registered below read them
// only when a snapshot is taken. Any of bs, rly, adm and aud may be nil
// — the matching metric families are simply not registered, so a
// plaintext broker or one without a relay exports exactly what it runs.
func RegisterBrokerTelemetry(reg *telemetry.Registry, b *broker.Broker, bs *BrokerSecurity, rly *relay.Relay, adm *admission.Limiter, aud *audit.Journal) {
	u := func(v uint64) float64 { return float64(v) }

	// Go runtime health. ReadMemStats on a snapshot pull is cheap at
	// scrape cadence (it stops the world for microseconds); the GC pause
	// total is cumulative so rate() gives pause time per second.
	reg.GaugeFunc("go_goroutines",
		"Goroutines currently live in this process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("go_gomaxprocs",
		"Scheduler parallelism (GOMAXPROCS).",
		func() float64 { return float64(runtime.GOMAXPROCS(0)) })
	reg.GaugeFunc("go_heap_inuse_bytes",
		"Bytes in in-use heap spans.",
		func() float64 { var m runtime.MemStats; runtime.ReadMemStats(&m); return float64(m.HeapInuse) })
	reg.CounterFunc("go_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause time.",
		func() float64 { var m runtime.MemStats; runtime.ReadMemStats(&m); return float64(m.PauseTotalNs) / 1e9 })

	// Broker operation surface.
	reg.CounterFunc("broker_ops_dispatched_total",
		"Operations routed to a handler (rate-limited refusals included).",
		func() float64 { return u(b.Stats().OpsDispatched) })
	reg.CounterFunc("broker_ops_failed_total",
		"Operations answered with an error token.",
		func() float64 { return u(b.Stats().OpsFailed) })
	reg.CounterFunc("broker_ops_rate_limited_total",
		"Operations refused by admission control.",
		func() float64 { return u(b.Stats().OpsRateLimited) })
	reg.CounterFunc("broker_advs_published_total",
		"Advertisements accepted via publishAdv.",
		func() float64 { return u(b.Stats().AdvsPublished) })
	reg.CounterFunc("broker_fed_advs_accepted_total",
		"Federation-forwarded advertisements accepted into the cache.",
		func() float64 { return u(b.Stats().FedAdvsAccepted) })
	reg.CounterFunc("broker_fed_stale_presence_total",
		"Federation presence updates discarded by the session guard.",
		func() float64 { return u(b.Stats().FedStalePresence) })
	reg.GaugeFunc("broker_peers_online",
		"Peers currently logged in at this broker.",
		func() float64 { return float64(b.Stats().PeersOnline) })
	reg.GaugeFunc("broker_peers_known",
		"Session records held (online and offline).",
		func() float64 { return float64(b.Stats().PeersKnown) })
	reg.CounterFunc("broker_idem_deduped_total",
		"Mutating requests answered from the idempotency dedup window.",
		func() float64 { return u(b.Stats().IdemDeduped) })
	reg.GaugeFunc("broker_idem_entries",
		"Responses currently cached in the idempotency dedup window.",
		func() float64 { return float64(b.IdemEntries()) })
	reg.CounterFunc("broker_idem_evicted_live_total",
		"Cached responses evicted from a full dedup window while still live (their retries would re-execute).",
		func() float64 { return u(b.IdemEvictions()) })

	// Advertisement index: one record per (type, id), replaced by the next
	// publication under it and otherwise gone one lifetime later — a value
	// that follows the number of joins rather than of identities is a leak.
	reg.GaugeFunc("broker_discovery_records",
		"Advertisement records held in the broker's index.",
		func() float64 { return float64(b.Cache().Len()) })
	reg.CounterFunc("broker_discovery_swept_total",
		"Expired advertisement records swept from the broker's index.",
		func() float64 { return u(b.Cache().Swept()) })

	// Security extension: replay guard, signature caches, parsers. The
	// replay and parse counters are process-wide aggregates (see their
	// packages); on a one-broker-per-process deployment they are broker
	// totals, in tests they aggregate every instance.
	reg.CounterFunc("core_replay_rejected_total",
		"Secure messages rejected as replays (digest/nonce already seen).",
		func() float64 { r, _ := ReplayStats(); return u(r) })
	reg.CounterFunc("core_stale_rejected_total",
		"Secure messages rejected as stale (outside freshness window).",
		func() float64 { _, s := ReplayStats(); return u(s) })
	reg.CounterFunc("core_replay_evicted_live_total",
		"Replay-guard entries evicted from a full guard while a replay of them would still be fresh.",
		func() float64 { return u(ReplayEvictions()) })
	reg.CounterFunc("xmldoc_parse_canonical_total",
		"ParseCanonical invocations.",
		func() float64 { c, _ := xmldoc.ParseCanonicalStats(); return u(c) })
	reg.CounterFunc("xmldoc_parse_failures_total",
		"ParseCanonical invocations that returned an error.",
		func() float64 { _, f := xmldoc.ParseCanonicalStats(); return u(f) })
	reg.CounterFunc("advert_parse_total",
		"Advertisement parses (cache misses in the signed-adv path).",
		func() float64 { return u(advert.ParseCalls()) })
	if bs != nil {
		// Liveness: presence leases and the heartbeat surface.
		reg.CounterFunc("core_leases_granted_total",
			"Presence leases minted at secureLogin.",
			func() float64 { return u(bs.LivenessStats().LeasesGranted) })
		reg.CounterFunc("core_leases_expired_total",
			"Leases lapsed by missed heartbeats (presence taken down).",
			func() float64 { return u(bs.LivenessStats().LeasesExpired) })
		reg.CounterFunc("core_heartbeats_renewed_total",
			"Heartbeats that renewed a live lease.",
			func() float64 { return u(bs.LivenessStats().HeartbeatsRenewed) })
		reg.CounterFunc("core_heartbeats_rejected_total",
			"Heartbeats refused (bad credential, replayed seq, lapsed lease).",
			func() float64 { return u(bs.LivenessStats().HeartbeatsRejected) })
		reg.GaugeFunc("core_leases",
			"Presence leases currently live.",
			func() float64 { return float64(bs.Leases()) })
		if vc := bs.VerifyCache(); vc != nil {
			reg.CounterFunc("xdsig_verify_cache_hits_total",
				"Signature verifications skipped by the verify cache.",
				func() float64 { h, _ := vc.Stats(); return u(h) })
			reg.CounterFunc("xdsig_verify_cache_misses_total",
				"Signature verifications that ran crypto (cache misses).",
				func() float64 { _, m := vc.Stats(); return u(m) })
		}
		if ts := bs.Trust(); ts != nil {
			reg.CounterFunc("cred_chain_cache_hits_total",
				"Credential chain validations answered from cache.",
				func() float64 { h, _ := ts.ChainCacheStats(); return u(h) })
			reg.CounterFunc("cred_chain_cache_misses_total",
				"Credential chain validations walked in full.",
				func() float64 { _, m := ts.ChainCacheStats(); return u(m) })
		}
	}

	// Relay (store-and-forward) queues.
	if rly != nil {
		reg.CounterFunc("relay_delivered_direct_total",
			"Slices handed to online recipients without queueing.",
			func() float64 { return u(rly.Metrics().DeliveredDirect) })
		reg.CounterFunc("relay_delivered_flushed_total",
			"Queued slices delivered by a flush.",
			func() float64 { return u(rly.Metrics().DeliveredFlushed) })
		reg.CounterFunc("relay_handed_off_total",
			"Slices forwarded to a federation partner broker.",
			func() float64 { return u(rly.Metrics().HandedOff) })
		reg.CounterFunc("relay_enqueued_total",
			"Slices that entered an offline queue.",
			func() float64 { return u(rly.Metrics().Enqueued) })
		reg.CounterFunc("relay_dropped_overflow_total",
			"Oldest slices dropped by full queues.",
			func() float64 { return u(rly.Metrics().DroppedOverflow) })
		reg.CounterFunc("relay_dropped_quota_total",
			"Submissions refused by sender/group queue quotas.",
			func() float64 { return u(rly.Metrics().DroppedQuota) })
		reg.CounterFunc("relay_expired_total",
			"Slices whose TTL ran out before delivery.",
			func() float64 { return u(rly.Metrics().Expired) })
		reg.CounterFunc("relay_deliver_errors_total",
			"Failed delivery attempts (the slice is kept).",
			func() float64 { return u(rly.Metrics().DeliverErrors) })
		reg.CounterFunc("relay_wal_errors_total",
			"Queue mutations the WAL failed to log.",
			func() float64 { return u(rly.Metrics().WALErrors) })
		reg.CounterFunc("relay_recovery_replayed_total",
			"Slices rebuilt into queues at startup.",
			func() float64 { return u(rly.Metrics().RecoveryReplayed) })
		reg.GaugeFunc("relay_queued",
			"Slices currently waiting in offline queues.",
			func() float64 { return float64(rly.QueuedTotal()) })
	}

	// Audit journal (tamper-evident security event log).
	if aud != nil {
		reg.CounterFunc("audit_records_total",
			"Event records appended to the audit journal.",
			func() float64 { return u(aud.Stats().Records) })
		reg.CounterFunc("audit_checkpoints_total",
			"Signed checkpoints sealed into the audit journal.",
			func() float64 { return u(aud.Stats().Checkpoints) })
		reg.CounterFunc("audit_lost_total",
			"Audit events dropped after a journal write failure.",
			func() float64 { return u(aud.Stats().Lost) })
		reg.GaugeFunc("audit_segments",
			"Segment files the audit journal spans.",
			func() float64 { return float64(aud.Stats().Segments) })
		reg.GaugeFunc("audit_seq",
			"Current audit chain sequence number.",
			func() float64 { return u(aud.Stats().Seq) })
	}

	// Admission control.
	if adm != nil {
		reg.CounterFunc("admission_allowed_total",
			"Operations admitted by the rate limiter.",
			func() float64 { return u(adm.Metrics().Allowed) })
		reg.CounterFunc("admission_limited_total",
			"Operations refused by the rate limiter.",
			func() float64 { return u(adm.Metrics().Limited) })
		reg.CounterFunc("admission_alerts_total",
			"Offense-streak threshold crossings (SecurityAlerts).",
			func() float64 { return u(adm.Metrics().Alerts) })
		reg.GaugeFunc("admission_tracked",
			"Credentials currently holding a token bucket.",
			func() float64 { return float64(adm.Metrics().Tracked) })
	}
}
