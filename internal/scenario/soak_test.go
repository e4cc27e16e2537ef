package scenario

import (
	"context"
	"runtime"
	"testing"
	"time"

	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/telemetry"
)

// TestJoinSoakLeavesNothingBehind cycles a 16-identity pool through ten
// whole client lifetimes (new client, secureConnection, secureLogin,
// logout, close) beside 4 residents, and reads the result the way an
// operator would: the registry's record gauges and the live heap after
// the tenth cycle must be what they were after the first. What a join
// leaves behind may depend on how many identities there are, never on
// how many joins there have been.
func TestJoinSoakLeavesNothingBehind(t *testing.T) {
	const (
		residents = 4
		pool      = 16
		cycles    = 10
	)
	reg := telemetry.New()
	profile, err := simnet.ProfileByName("local")
	if err != nil {
		t.Fatal(err)
	}
	s, err := newStack(residents+pool, profile, nil, core.RelayConfig{}, 0, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// One keystore for the run: an identity keeps its key, and so its
	// peer ID, from one lifetime to the next.
	keystore := t.TempDir()
	join := func(i int) *core.SecureClient {
		t.Helper()
		cl, err := client.New(s.net, membership.NewPSE(keystore, 0), user(i))
		if err != nil {
			t.Fatal(err)
		}
		trust, err := s.dep.TrustStore()
		if err != nil {
			t.Fatal(err)
		}
		sc, err := core.NewSecureClient(cl, trust)
		if err != nil {
			t.Fatal(err)
		}
		cl.BindTelemetry(reg)
		if err := sc.Join(ctx, s.br.PeerID(), pw(i)); err != nil {
			t.Fatal(err)
		}
		return sc
	}
	for i := 0; i < residents; i++ {
		sc := join(i)
		defer sc.Close()
	}
	metric := func(name string) float64 {
		v, ok := reg.Get(name)
		if !ok {
			t.Fatalf("metric %s not registered", name)
		}
		return v
	}

	// Every identity has a pipe and a presence record at the broker. A
	// resident holds its own pipe, and the pipe of everyone who logged in
	// after it: the residents that followed and the pool. Presence reaches
	// a resident as a notice, which leaves no record.
	wantBroker := float64(2 * (residents + pool))
	wantClients := 0.0
	for i := 0; i < residents; i++ {
		wantClients += float64(1 + (residents - 1 - i) + pool)
	}
	var heapAfterFirst uint64
	for cycle := 1; cycle <= cycles; cycle++ {
		for i := residents; i < residents+pool; i++ {
			sc := join(i)
			if err := sc.Logout(ctx); err != nil {
				t.Fatalf("cycle %d %s logout: %v", cycle, user(i), err)
			}
			sc.Close()
		}
		// The last pushes are still on their way to the residents.
		if !waitFor(ctx, 5*time.Second, func() bool {
			return metric(client.DiscoveryRecordsMetric) == wantClients
		}) {
			t.Fatalf("cycle %d: clients hold %v records, want %v", cycle, metric(client.DiscoveryRecordsMetric), wantClients)
		}
		if got := metric("broker_discovery_records"); got != wantBroker {
			t.Fatalf("cycle %d: broker holds %v records, want %v", cycle, got, wantBroker)
		}
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		switch cycle {
		case 1:
			heapAfterFirst = m.HeapAlloc
		case cycles:
			t.Logf("live heap: %d B after cycle 1, %d B after cycle %d", heapAfterFirst, m.HeapAlloc, cycles)
			if float64(m.HeapAlloc) > 1.10*float64(heapAfterFirst) {
				t.Fatalf("live heap grew from %d B after cycle 1 to %d B after cycle %d (more than 10 %%)",
					heapAfterFirst, m.HeapAlloc, cycles)
			}
		}
	}
	if on := s.br.Stats().PeersOnline; on != residents {
		t.Fatalf("broker sees %d peers online, want the %d residents", on, residents)
	}
	if n := s.alerts.Load(); n != 0 {
		t.Fatalf("%d security alerts during the soak", n)
	}
}
