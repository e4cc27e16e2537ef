package core

import (
	"strconv"
	"testing"
	"time"

	"jxtaoverlay/internal/lru"
)

// sidTable is a BrokerSecurity with nothing but its session-identifier
// table: what issueSid and consumeSid touch, at the now they are handed.
func sidTable() *BrokerSecurity {
	return &BrokerSecurity{sids: lru.NewWindow[string, struct{}](sidCapacity)}
}

// TestSidTableStaysAtCapacity: secureConnection needs no login, so the
// table a stranger can fill is bounded, and what a full table gives up is
// the identifier closest to expiry — the one issued first.
func TestSidTableStaysAtCapacity(t *testing.T) {
	now := time.Now()
	bs := sidTable()
	bs.issueSid("first", now)
	now = now.Add(time.Second)
	bs.issueSid("second", now)
	now = now.Add(time.Second)
	for i := 0; bs.PendingSids() < sidCapacity; i++ {
		bs.issueSid("filler-"+strconv.Itoa(i), now)
	}
	bs.issueSid("one more", now)
	if got := bs.PendingSids(); got != sidCapacity {
		t.Fatalf("table holds %d identifiers after an issue at capacity, want %d", got, sidCapacity)
	}
	if bs.consumeSid("first", now) {
		t.Error("the identifier closest to expiry survived an issue at capacity")
	}
	for _, sid := range []string{"second", "one more"} {
		if !bs.consumeSid(sid, now) {
			t.Errorf("%q was evicted; only the identifier closest to expiry may be", sid)
		}
	}
	// What has expired makes room before anything live is given up.
	now = now.Add(sidTTL + time.Second)
	bs.issueSid("after the window", now)
	if got := bs.PendingSids(); got != 1 {
		t.Errorf("table holds %d identifiers after every other one expired, want 1", got)
	}
}

// TestSidIssueDoesNotScan: a flood of secureConnection calls keeps the
// table full, so an issue there must cost what it costs on an empty one —
// no walk over the table (TestReplayGuardAdmitDoesNotScan's measure: 10,000
// issues against 10,000 walks of a map the table's size).
func TestSidIssueDoesNotScan(t *testing.T) {
	const issues = 10000
	now := time.Now()
	bs := sidTable()
	sids := make([]string, sidCapacity+issues)
	for i := range sids {
		sids[i] = "sid-" + strconv.Itoa(i)
	}
	for _, sid := range sids[:sidCapacity] {
		bs.issueSid(sid, now)
	}
	scan := tableWalks(t, sidCapacity, issues)

	start := time.Now()
	for _, sid := range sids[sidCapacity:] {
		bs.issueSid(sid, now)
	}
	took := time.Since(start)
	t.Logf("%d issues %v, %d table walks %v", issues, took, issues, scan)
	if took > scan/4 {
		t.Errorf("%d issues on a full table took %v; one table walk per issue would take %v", issues, took, scan)
	}
	if got := bs.PendingSids(); got != sidCapacity {
		t.Errorf("table holds %d identifiers after issues at capacity, want %d", got, sidCapacity)
	}
}
