package relay

import "jxtaoverlay/internal/keys"

// ScheduledRetries reports how many peers the shards' schedules hold for
// a later instant: the retries failed drains scheduled.
func (r *Relay) ScheduledRetries() int {
	n := 0
	for _, s := range r.shards {
		s.mu.Lock()
		for _, at := range s.sched {
			if !at.IsZero() {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// RetryState reports whether anything of the retry ladder remains for a
// peer: a drain on its shard's schedule or a failed attempt counted.
func (r *Relay) RetryState(id keys.PeerID) bool {
	s := r.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, scheduled := s.sched[id]
	return scheduled || s.queues[id].attempts > 0
}

// SameShard reports whether two peers' queues share a shard.
func (r *Relay) SameShard(a, b keys.PeerID) bool { return r.shardOf(a) == r.shardOf(b) }
