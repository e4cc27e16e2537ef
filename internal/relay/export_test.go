package relay

import "jxtaoverlay/internal/keys"

// ArmedRetries reports how many retry timers are currently armed —
// test-only visibility for the Close-cancels-retries regression test.
func (r *Relay) ArmedRetries() int {
	r.retryMu.Lock()
	defer r.retryMu.Unlock()
	return len(r.retryTimers)
}

// SameShard reports whether two peers' queues share a shard.
func (r *Relay) SameShard(a, b keys.PeerID) bool { return r.shardOf(a) == r.shardOf(b) }
