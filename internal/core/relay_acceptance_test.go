package core_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/relay"
)

// TestRelayHundredRecipientsThirtyPercentOffline is the subsystem's
// acceptance scenario: a 100-recipient round with 30 recipients offline
// is sealed and uploaded ONCE (one sender signature, one full wire),
// sliced relay-side, delivered immediately to the 70 online members,
// queued for the 30 offline ones, and fully drained when they log back
// in — every slice opening correctly at its recipient, with per-
// recipient wire bytes O(N) instead of the full wire's O(N²) fan-out.
func TestRelayHundredRecipientsThirtyPercentOffline(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 100 RSA keys")
	}
	const (
		n        = 100
		nOffline = 30
	)
	sender, members, pubs := newSliceParties(t, n)

	signsBefore := sender.kp.SignCalls()
	d, err := core.SealGroupDetached(sender.kp, sender.id, "g", []byte("acceptance round"), pubs)
	if err != nil {
		t.Fatal(err)
	}
	if got := sender.kp.SignCalls() - signsBefore; got != 1 {
		t.Fatalf("sealing cost %d sender signatures, want exactly 1", got)
	}

	// The sender's upload: ONE full wire, not one per recipient.
	upload := d.Wire()
	uploadedOnce := len(upload)
	clientSideFanOut := n * len(upload) // what PR 2's path would send
	if uploadedOnce*10 >= clientSideFanOut {
		t.Fatalf("upload %dB not an order cheaper than client-side fan-out %dB", uploadedOnce, clientSideFanOut)
	}

	// The relay re-cuts the uploaded bytes without keys; each recipient
	// receives O(N) bytes (shared ciphertext + own wrap + log-proof),
	// not the O(N²)-per-round full wire.
	sliced, err := core.SliceRound(upload)
	if err != nil {
		t.Fatal(err)
	}
	slices := sliced.Slices()
	for i, s := range slices {
		// The upload without the other recipients' entries, plus a leaf
		// index and a proof of at most ceil(log2 100) = 7 hashes.
		if most := len(upload) - (n-1)*(32+keys.WrapSize) + 4 + 1 + 7*32; len(s) > most {
			t.Fatalf("slice %d is %dB, more than the %dB of one recipient's cut of the %dB full wire", i, len(s), most, len(upload))
		}
	}

	// Presence: the last nOffline members are logged out at send time.
	var mu sync.Mutex
	online := make(map[keys.PeerID]bool, n)
	ids := make([]keys.PeerID, n)
	delivered := make(map[keys.PeerID][]byte, n)
	for i, m := range members {
		ids[i] = m.id
		online[m.id] = i < n-nOffline
	}
	bus := events.NewBus()
	r, rerr := relay.New(relay.Config{Shards: 4},
		func(id keys.PeerID) bool { mu.Lock(); defer mu.Unlock(); return online[id] },
		func(it relay.Item) error {
			mu.Lock()
			defer mu.Unlock()
			if !online[it.To] {
				return errors.New("unreachable")
			}
			if _, dup := delivered[it.To]; dup {
				return fmt.Errorf("duplicate delivery to %s", it.To)
			}
			delivered[it.To] = it.Payload
			return nil
		})
	if rerr != nil {
		t.Fatal(rerr)
	}
	defer r.Close()
	defer r.BindBus(bus)()

	direct, queued := 0, 0
	for i := range ids {
		switch r.Submit(relay.Item{To: ids[i], From: sender.id, Group: "g", Payload: slices[i]}) {
		case relay.SubmitDirect:
			direct++
		case relay.SubmitQueued:
			queued++
		default:
			t.Fatalf("slice %d dropped by open relay", i)
		}
	}
	if direct != n-nOffline || queued != nOffline {
		t.Fatalf("direct=%d queued=%d, want %d/%d", direct, queued, n-nOffline, nOffline)
	}
	if got := r.QueuedTotal(); got != nOffline {
		t.Fatalf("relay holds %d slices, want %d", got, nOffline)
	}

	// The offline members log back in; presence events drain the queues.
	for i := n - nOffline; i < n; i++ {
		mu.Lock()
		online[ids[i]] = true
		mu.Unlock()
		bus.Emit(events.Event{Type: events.PresenceUpdate, From: ids[i], Status: advert.StatusOnline})
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		got := len(delivered)
		mu.Unlock()
		if got == n {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Every member — present or returned — opens exactly its own slice.
	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != n {
		t.Fatalf("delivered to %d of %d recipients", len(delivered), n)
	}
	for i, m := range members {
		wire, ok := delivered[m.id]
		if !ok {
			t.Fatalf("recipient %d never received its slice", i)
		}
		guard := core.NewReplayGuard(time.Minute, 16)
		opened, err := core.OpenSlice(m.kp, wire, guard)
		if err != nil {
			t.Fatalf("recipient %d open: %v", i, err)
		}
		if string(opened.Body) != "acceptance round" {
			t.Fatalf("recipient %d body = %q", i, opened.Body)
		}
		if err := opened.VerifySignature(sender.kp.Public()); err != nil {
			t.Fatalf("recipient %d signature: %v", i, err)
		}
	}
	m := r.Metrics()
	if m.DeliveredDirect != uint64(n-nOffline) || m.DeliveredFlushed != uint64(nOffline) ||
		m.DroppedOverflow != 0 || m.Expired != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}
