package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"jxtaoverlay/internal/keys"
)

// checkAt and checkRoundAt are Check and CheckRound at a time the test
// chooses: what openWire asks of the guard, with its peer's now.
func checkAt(g *ReplayGuard, wire []byte, sentAt, now time.Time) error {
	return g.admit(replayKey{replayWire, sha256.Sum256(wire)}, sentAt, now)
}

func checkRoundAt(g *ReplayGuard, sender keys.PeerID, nonce []byte, sentAt, now time.Time) error {
	return g.admit(roundKey(sender, nonce), sentAt, now)
}

func TestReplayGuardAdmitsOnce(t *testing.T) {
	g := NewReplayGuard(time.Minute, 16)
	wire := []byte("envelope-bytes")
	now := time.Now()
	if err := g.Check(wire, now); err != nil {
		t.Fatalf("first Check: %v", err)
	}
	if err := g.Check(wire, now); err != ErrMessageReplayed {
		t.Fatalf("second Check = %v, want ErrMessageReplayed", err)
	}
	// A different message is admitted.
	if err := g.Check([]byte("other"), now); err != nil {
		t.Fatalf("different message: %v", err)
	}
}

func TestReplayGuardFreshness(t *testing.T) {
	g := NewReplayGuard(time.Minute, 16)
	base := time.Now()
	if err := checkAt(g, []byte("old"), base.Add(-2*time.Minute), base); err != ErrMessageStale {
		t.Fatalf("stale past = %v", err)
	}
	if err := checkAt(g, []byte("future"), base.Add(2*time.Minute), base); err != ErrMessageStale {
		t.Fatalf("stale future = %v", err)
	}
	if err := checkAt(g, []byte("fresh"), base.Add(-30*time.Second), base); err != nil {
		t.Fatalf("fresh = %v", err)
	}
}

func TestReplayGuardEvictsExpired(t *testing.T) {
	g := NewReplayGuard(time.Minute, 16)
	now := time.Now()
	checkAt(g, []byte("a"), now, now)
	checkAt(g, []byte("b"), now, now)
	// Advance past the window; the next admit sweeps expired entries.
	now = now.Add(2 * time.Minute)
	checkAt(g, []byte("c"), now, now)
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (expired entries swept)", g.Len())
	}
}

func TestReplayGuardBoundsMemory(t *testing.T) {
	g := NewReplayGuard(time.Hour, 8)
	now := time.Now()
	for i := 0; i < 50; i++ {
		now = now.Add(time.Millisecond)
		if err := checkAt(g, []byte(fmt.Sprintf("m%02d", i)), now, now); err != nil {
			t.Fatalf("Check %d: %v", i, err)
		}
	}
	if g.Len() > 8 {
		t.Fatalf("Len = %d, exceeds maxEntries", g.Len())
	}
}

// TestReplayGuardPrunedNonceStillRejected pins the pruning invariant
// the store-and-forward relay depends on: a round nonce may only leave
// the guard's memory once replaying it would fail the freshness check
// anyway. The probe is a future-dated round (allowed clock skew):
// pruning keyed to ADMISSION time would drop it while its signed
// timestamp is still fresh, letting a relay replay a drained slice.
func TestReplayGuardPrunedNonceStillRejected(t *testing.T) {
	const window = time.Minute
	g := NewReplayGuard(window, 16)
	base := time.Now()
	now := base

	nonce := []byte("round-nonce-1")
	// Signed 50s in the future (skew within ±window), admitted at base.
	sentAt := base.Add(50 * time.Second)
	if err := checkRoundAt(g, "alice", nonce, sentAt, now); err != nil {
		t.Fatalf("first CheckRound: %v", err)
	}

	// 70s later the ADMISSION is older than the window, but the signed
	// timestamp is only 20s old — a replay is still fresh. Force sweeps
	// with unrelated traffic; the entry must survive them.
	now = base.Add(70 * time.Second)
	for i := 0; i < 3; i++ {
		if err := checkAt(g, []byte{byte(i)}, now, now); err != nil {
			t.Fatalf("filler Check: %v", err)
		}
	}
	if err := checkRoundAt(g, "alice", nonce, sentAt, now); err != ErrMessageReplayed {
		t.Fatalf("replay inside window = %v, want ErrMessageReplayed", err)
	}

	// Once sentAt+window has passed, the entry may be pruned — and is:
	// staleness now rejects the replay, and memory is reclaimed.
	now = base.Add(3 * time.Minute)
	if err := checkAt(g, []byte("sweep-trigger"), now, now); err != nil {
		t.Fatalf("sweep trigger: %v", err)
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (all pre-window entries pruned)", g.Len())
	}
	if err := checkRoundAt(g, "alice", nonce, sentAt, now); err != ErrMessageStale {
		t.Fatalf("replay outside window = %v, want ErrMessageStale", err)
	}
}

// distinctWires returns a source of wires that never repeats and, so
// that it can feed an allocation count, reuses one buffer.
func distinctWires() (next func() []byte) {
	wire := make([]byte, 8)
	var n uint64
	return func() []byte {
		n++
		binary.BigEndian.PutUint64(wire, n)
		return wire
	}
}

// fillGuard admits wires stamped now until the table stops growing.
func fillGuard(g *ReplayGuard, now time.Time, next func() []byte) {
	for prev := -1; g.Len() > prev; {
		prev = g.Len()
		g.Check(next(), now)
	}
}

// TestReplayGuardAdmitDoesNotScan: a full guard is the steady state
// under load, so an admit there must cost what it costs on an empty
// one — no allocation, and no walk over the table. The time bound is
// taken from this machine: 10,000 admits must beat 10,000 walks of a
// map the guard's size by a wide margin (the code this replaced walked
// its map twice per admit).
func TestReplayGuardAdmitDoesNotScan(t *testing.T) {
	const admits = 10000
	g := NewReplayGuard(0, 0)
	now := time.Now()
	next := distinctWires()
	fillGuard(g, now, next)
	size := g.Len()
	if size != 4096 {
		t.Fatalf("full default guard holds %d entries, want 4096", size)
	}

	if a := testing.AllocsPerRun(1000, func() { g.Check(next(), now) }); a != 0 {
		t.Errorf("admit on a full guard allocates %v times, want 0", a)
	}

	scan := tableWalks(t, size, admits)

	start := time.Now()
	for i := 0; i < admits; i++ {
		if err := g.Check(next(), now); err != nil {
			t.Fatalf("admit %d on a full guard: %v", i, err)
		}
	}
	took := time.Since(start)
	t.Logf("%d admits %v, %d table walks %v", admits, took, admits, scan)
	if took > scan/4 {
		t.Errorf("%d admits on a full guard took %v; one table walk per admit would take %v", admits, took, scan)
	}
	if g.Len() != size {
		t.Errorf("Len = %d after admits at capacity, want %d", g.Len(), size)
	}
}

// tableWalks is what n walks over a map of size entries take — what n
// inserts into a table that scans itself on every insert would cost at
// the least — measured on a hundredth of them.
func tableWalks(t *testing.T, size, n int) time.Duration {
	t.Helper()
	table := make(map[int]int64, size)
	for i := 0; i < size; i++ {
		table[i] = 0
	}
	start := time.Now()
	visited := 0
	for i := 0; i < n/100; i++ {
		for range table {
			visited++
		}
	}
	if visited != size*n/100 {
		t.Fatalf("walked %d entries, want %d", visited, size*n/100)
	}
	return time.Since(start) * 100
}

func TestReplayGuardDefaults(t *testing.T) {
	g := NewReplayGuard(0, 0)
	if err := g.Check([]byte("x"), time.Now()); err != nil {
		t.Fatalf("defaulted guard rejected fresh message: %v", err)
	}
}
