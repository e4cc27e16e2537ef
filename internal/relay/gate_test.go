package relay_test

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/perfgate"
	"jxtaoverlay/internal/relay"
)

// benchChurnRound is the broker's work for one 100-recipient round
// under churn: cut the uploaded round into slices, route them — the
// 30 % of recipients that are offline through their queues — and drain
// those queues when the recipients return. durable puts the queues on
// the WAL, appends staged and fsyncs batched on a 2 ms flush interval,
// in /dev/shm where there is one so that the reading follows the code
// and not the machine's disk.
func benchChurnRound(b *testing.B, durable bool) {
	const n, nOffline = 100, 30
	kp, err := keys.NewKeyPair() // the relay reads no key: one serves sender and every recipient
	if err != nil {
		b.Fatal(err)
	}
	pubs := make([]*keys.PublicKey, n)
	ids := make([]keys.PeerID, n)
	idx := make(map[keys.PeerID]int, n)
	for i := range ids {
		pubs[i] = kp.Public()
		ids[i] = keys.PeerID(fmt.Sprintf("urn:jxta:cbid-recipient-%03d", i))
		idx[ids[i]] = i
	}
	d, err := core.SealGroupDetached(kp, "urn:jxta:cbid-sender", "bench", make([]byte, 1024), pubs)
	if err != nil {
		b.Fatal(err)
	}
	upload := d.Wire()

	cfg := relay.Config{Shards: 4, QueueCap: n + 1, TTL: time.Hour}
	if durable {
		cfg.WAL.Dir = b.TempDir()
		if dir, err := os.MkdirTemp("/dev/shm", "relay-gate-"); err == nil {
			b.Cleanup(func() { os.RemoveAll(dir) })
			cfg.WAL.Dir = dir
		}
		cfg.WAL.SyncInterval = 2 * time.Millisecond
	}
	var returned atomic.Bool
	var delivered atomic.Uint64
	r, err := relay.New(cfg,
		func(id keys.PeerID) bool { return idx[id] >= nOffline || returned.Load() },
		func(relay.Item) error { delivered.Add(1); return nil })
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		returned.Store(false)
		sliced, err := core.SliceRound(upload)
		if err != nil {
			b.Fatal(err)
		}
		for j, s := range sliced.Slices() {
			r.Submit(relay.Item{To: ids[j], From: "sender", Group: "bench", Payload: s})
		}
		returned.Store(true)
		for j := 0; j < nOffline; j++ {
			r.Flush(ids[j])
		}
		for delivered.Load() < uint64((i+1)*n) {
			runtime.Gosched()
		}
	}
}

func BenchmarkChurnRound(b *testing.B)        { benchChurnRound(b, false) }
func BenchmarkChurnRoundDurable(b *testing.B) { benchChurnRound(b, true) }

func TestGateChurnRoundDurable(t *testing.T) {
	perfgate.Run(t, BenchmarkChurnRoundDurable, 816, perfgate.NoLimit)
}

// TestGatePersistenceTax holds the durable round under twice the
// in-memory one. Both sides are measured here, back to back, so the
// bound needs no baseline; past it the WAL path has grown software
// overhead — syscalls, lock stalls or copies on the drain path.
func TestGatePersistenceTax(t *testing.T) {
	if perfgate.Race {
		t.Skip("a ratio of times; the race detector's overhead is not the WAL's")
	}
	var ratio float64
	for run := 0; run < 3; run++ {
		mem := perfgate.Run(t, BenchmarkChurnRound, perfgate.NoLimit, perfgate.NoLimit)
		dur := perfgate.Run(t, BenchmarkChurnRoundDurable, perfgate.NoLimit, perfgate.NoLimit)
		if ratio = float64(dur.NsPerOp()) / float64(mem.NsPerOp()); ratio <= 2 {
			return
		}
	}
	t.Fatalf("durable round costs %.2f× the in-memory one at best of three, ceiling 2×", ratio)
}
