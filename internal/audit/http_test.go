package audit

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/trace"
)

// TestDebugHandlerConcurrentWithAppends hammers /debug/audit while
// writer goroutines append past the ring's 4,096 records — the race
// detector turns any unsynchronized ring/chain access into a failure
// (this is the -race half of the observability contract; CI runs the
// package under -race) — and the wrapped ring serves its newest records.
func TestDebugHandlerConcurrentWithAppends(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	h := j.DebugHandler()

	const writers, perWriter = 4, 1100
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				j.Record(Event{Kind: KindRateLimited, Peer: fmt.Sprintf("peer-%d", w), Op: "op", Reason: "r", Trace: uint64(i)})
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/audit?limit=16", nil))
			var page PageJSON
			if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
				t.Errorf("bad page mid-append: %v", err)
				return
			}
		}
	}()
	// Wait for the writers, then stop the reader.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		if j.Seq() >= writers*perWriter {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/audit", nil))
	var page PageJSON
	if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.Seq != writers*perWriter || page.Records != writers*perWriter {
		t.Fatalf("final page seq %d records %d, want %d", page.Seq, page.Records, writers*perWriter)
	}
	if len(page.Events) != ringSize {
		t.Fatalf("ring of %d served %d events", ringSize, len(page.Events))
	}
	if first := page.Events[0].Seq; first != writers*perWriter-ringSize+1 {
		t.Fatalf("wrapped ring's oldest record is seq %d, want %d", first, writers*perWriter-ringSize+1)
	}
}

// TestDebugHandlerFilters: the server-side query filters select on
// kind, peer, op, trace and since.
func TestDebugHandlerFilters(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	mustRecord(t, j, Event{Kind: KindLogin, Peer: "alice", Op: "secureLogin", Reason: "ok"})
	mustRecord(t, j, Event{Kind: KindRateLimited, Peer: "bob", Op: "publishAdv", Reason: "rate-limited", Trace: 0xabcd})
	mustRecord(t, j, Event{Kind: KindLogin, Peer: "bob", Op: "secureLogin", Reason: "auth-failed"})

	get := func(query string) PageJSON {
		t.Helper()
		rr := httptest.NewRecorder()
		j.DebugHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/audit?"+query, nil))
		var page PageJSON
		if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		return page
	}

	if p := get("kind=login"); len(p.Events) != 2 {
		t.Fatalf("kind filter: %d events, want 2", len(p.Events))
	}
	if p := get("peer=bob"); len(p.Events) != 2 {
		t.Fatalf("peer filter: %d events, want 2", len(p.Events))
	}
	if p := get("op=publishAdv"); len(p.Events) != 1 {
		t.Fatalf("op filter: %d events, want 1", len(p.Events))
	}
	if p := get("trace=" + trace.FormatID(0xabcd)); len(p.Events) != 1 || p.Events[0].Seq != 2 {
		t.Fatalf("trace filter: %+v, want the seq-2 event", p.Events)
	}
	if p := get("since=2"); len(p.Events) != 1 || p.Events[0].Seq != 3 {
		t.Fatalf("since filter: %+v, want only seq 3", p.Events)
	}
	if p := get("limit=1"); len(p.Events) != 1 {
		t.Fatalf("limit: %d events, want 1", len(p.Events))
	}
}
