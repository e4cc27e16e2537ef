package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"syscall"
)

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// metricName is the contract's rule for names: a letter or digit, then
// at most 63 letters, digits, '_', '.' and '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// endToEndMetrics are the gated metrics, the same eight on every
// workload. An op is a verified delivery. failed_ratio is not among
// them because the contract wants metrics that are never 0; it is the
// result line's failed/attempted instead. The three time-based bounds
// come from the spreads measured on this machine, not the 0.10 ISSUE 12
// hoped for; README, "End-to-end metrics", has every set that was run,
// including the one cell that read above a third of its bound.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"goodput_per_ktick", "1/ktick", "higher", 0.25},
	{"latency_p50_ticks", "ticks", "lower", 0.20},
	{"cpu_ticks_per_op", "ticks", "lower", 0.20},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_kb_per_op", "KiB", "lower", 0.02},
	{"wire_bytes_per_op", "B", "lower", 0.02},
	{"heap_live_mb", "MiB", "lower", 0.10},
}

func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// perLayerMetrics are the ungated metrics of the per-layer pass, layer
// by layer. README.md defines each and says which end-to-end metric it
// should move, on which workload.
var perLayerMetrics = layerDefs(
	"keys", "sign_us:us", "verify_us:us", "wrap_us:us", "unwrap_us:us", "aead_seal_us:us", "aead_open_us:us",
	"sign_calls_per_op:count", "rsa_share:ratio",
	"xmldoc", "parse_canonical_us:us", "canonical_cold_us:us", "parse_allocs:count", "parse_calls_per_op:count",
	"xdsig", "sign_us:us", "verify_cold_us:us", "verify_warm_us:us", "cache_hit_ratio:ratio:higher",
	"cred", "issue_us:us", "verify_chain_us:us", "chain_cache_hit_ratio:ratio:higher",
	"advert", "parse_calls_per_op:count",
	"discovery", "find_pipe_us:us", "cache_len:count",
	"endpoint", "marshal_us:us", "parse_us:us", "framing_overhead_ratio:ratio", "alloc_kb_per_msg:KiB",
	"simnet", "send_us:us", "packets_per_op:count", "bytes_per_op:B", "dropped:count",
	"substrate", "plain_msg_us:us", "plain_allocs:count", "secure_over_plain_x:x",
	"core", "seal_us:us", "seal_self_us:us", "open_us:us", "open_self_us:us", "seal_group_us:us", "slice_round_us:us",
	"open_slice_us:us", "open_slice_self_us:us", "replay_check_us:us", "wire_bytes_per_recipient:B",
	"client", "send_call_us:us", "relay_call_us:us", "lookup_pipe_warm_us:us", "new_close_us:us",
	"broker", "noop_rtt_us:us", "lookup_pipe_rtt_us:us", "relay_round_rtt_us:us", "relay_round_self_us:us",
	"publish_adv_rtt_us:us", "ops_per_op:count", "peers_online:count", "idem_entries:count",
	"brokersec", "connect_us:us", "login_us:us", "logout_us:us", "join_over_plain_pct:%",
	"userdb", "authenticate_us:us",
	"admission", "allow_us:us", "refused:count",
	"relay", "submit_direct_us:us", "submit_queued_us:us", "flush_us_per_slice:us", "drain_us_per_slice:us",
	"login_to_first_slice_us:us", "direct_ratio:ratio:higher", "enqueued_per_op:count", "queue_depth_max:count",
	"deliver_errors:count", "dropped:count",
	"wal", "append_add_us:us", "append_ack_us:us", "sync_us:us", "bytes_per_slice:B", "errors:count", "segments:count",
	"audit", "record_us:us", "records_per_op:count", "checkpoints:count",
	"trace", "stage.seal_us:us", "stage.send_us:us", "stage.admission_us:us", "stage.parse_us:us", "stage.verify_us:us",
	"stage.publish_us:us", "stage.slice_us:us", "stage.enqueue_us:us", "stage.wal-append_us:us", "stage.wal-fsync_us:us",
	"stage.queue-wait_us:us", "stage.deliver_us:us", "stage.open_us:us", "overhead_ratio:ratio", "unsampled_span_us:us",
	"telemetry", "snapshot_us:us", "delivery_hist_p50_ms:ms",
	"stack", "coverage_ratio:ratio:higher", "unattributed_share:ratio", "rsa_private_share:ratio",
	"runtime", "gc_cycles:count", "gc_pause_ms:ms", "goroutines_end:count", "heap_objects_k:count",
	"cpu_util:ratio:higher", "speedup_p2_over_p1:x:higher",
	"raw", "goodput_per_s:1/s:higher", "latency_p50_ms:ms", "cpu_ms_per_op:ms",
	"tail", "latency_p99_ticks:ticks", "latency_p999_ticks:ticks", "samples:count:higher",
	"canary", "tick_us:us", "tick_cv:ratio",
	"gen", "window_cv:ratio", "windows:count:higher",
	"openloop", "p50_ticks_at50:ticks", "p99_ticks_at50:ticks", "p50_ticks_at80:ticks", "p99_ticks_at80:ticks",
	"gen_late_ms:ms", "backlog_growth:ratio",
)

// layerDefs expands "layer", "name:unit[:better]", … into definitions
// named layer.name; better defaults to lower.
func layerDefs(items ...string) []metricDef {
	var out []metricDef
	layer := ""
	for _, it := range items {
		parts := strings.Split(it, ":")
		if len(parts) == 1 {
			layer = it
			continue
		}
		d := metricDef{Name: layer + "." + parts[0], Unit: parts[1], Better: "lower"}
		if len(parts) > 2 {
			d.Better = parts[2]
		}
		out = append(out, d)
	}
	return out
}

// layerMetricNames lists the per-layer metrics whose name starts with
// prefix, in table order.
func layerMetricNames(prefix string) []string {
	var out []string
	for _, d := range perLayerMetrics {
		if strings.HasPrefix(d.Name, prefix) {
			out = append(out, d.Name)
		}
	}
	return out
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
