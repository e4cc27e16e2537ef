package discovery

import (
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/xmldoc"
)

func pipeAdv(id, group string) *advert.Pipe {
	return &advert.Pipe{
		PipeID:   id,
		PipeType: advert.PipeUnicast,
		PeerID:   "urn:jxta:cbid-1",
		Group:    group,
	}
}

func TestPutLookup(t *testing.T) {
	c := NewCache(time.Now)
	if err := c.PutAdv(pipeAdv("urn:jxta:pipe-1", "g")); err != nil {
		t.Fatalf("PutAdv: %v", err)
	}
	rec, err := c.Lookup(advert.TypePipe, "urn:jxta:pipe-1")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if rec.Adv.(*advert.Pipe).Group != "g" {
		t.Fatalf("record = %+v", rec.Adv)
	}
	if _, err := c.Lookup(advert.TypePipe, "urn:jxta:pipe-404"); err != ErrNotFound {
		t.Fatalf("Lookup missing = %v", err)
	}
}

func TestPutReplacesSameID(t *testing.T) {
	c := NewCache(time.Now)
	c.PutAdv(pipeAdv("urn:jxta:pipe-1", "old"))
	c.PutAdv(pipeAdv("urn:jxta:pipe-1", "new"))
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	rec, err := c.Lookup(advert.TypePipe, "urn:jxta:pipe-1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Adv.(*advert.Pipe).Group != "new" {
		t.Fatal("Put did not replace record")
	}
}

func TestPutRejectsGarbage(t *testing.T) {
	c := NewCache(time.Now)
	if _, err := c.Put(xmldoc.New("Nonsense", "")); err == nil {
		t.Fatal("Put accepted unknown advertisement")
	}
}

func TestDocStoredVerbatim(t *testing.T) {
	// The cache must preserve the received document (with signature),
	// not a re-serialization — and it keeps the tree it is handed, not a
	// copy of it: one tree per record, shared and read-only from the put
	// on (the package comment's ownership rule).
	c := NewCache(time.Now)
	adv := pipeAdv("urn:jxta:pipe-1", "g")
	doc, _ := adv.Document()
	doc.Add(xmldoc.New("Signature", "SIGBYTES"))
	wire := string(doc.Canonical())
	if _, err := c.Put(doc); err != nil {
		t.Fatalf("Put: %v", err)
	}
	rec, err := c.Lookup(advert.TypePipe, "urn:jxta:pipe-1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Doc != doc {
		t.Fatal("cache stored a copy of the tree it was given")
	}
	if got := string(rec.Doc.Canonical()); got != wire {
		t.Fatalf("stored bytes differ from the received ones:\n got %s\nwant %s", got, wire)
	}
	again, err := c.Lookup(advert.TypePipe, "urn:jxta:pipe-1")
	if err != nil || again.Doc != doc {
		t.Fatal("two readers of one record were handed different trees")
	}

	// PutParsed keeps the caller's advertisement as well as its document.
	pres := &advert.Presence{PeerID: "urn:jxta:cbid-9", Group: "g", Status: advert.StatusOnline, Seen: time.Now()}
	pdoc, _ := pres.Document()
	if err := c.PutParsed(pdoc, pres); err != nil {
		t.Fatal(err)
	}
	prec, err := c.Lookup(advert.TypePresence, pres.AdvID())
	if err != nil || prec.Doc != pdoc || prec.Adv != advert.Advertisement(pres) {
		t.Fatal("PutParsed did not store the tree and advertisement it was given")
	}
}

// Shared trees are read from many goroutines at once while puts replace
// them; the race detector watches the rule.
func TestSharedTreeConcurrentReaders(t *testing.T) {
	c := NewCache(time.Now)
	c.PutAdv(pipeAdv("urn:jxta:pipe-1", "g"))
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec, err := c.Lookup(advert.TypePipe, "urn:jxta:pipe-1")
				if err != nil {
					t.Error(err)
					return
				}
				if len(rec.Doc.Canonical()) == 0 || len(rec.Doc.CanonicalSkip("Signature")) == 0 {
					t.Error("empty canonical form")
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		c.PutAdv(pipeAdv("urn:jxta:pipe-1", "g"))
	}
	wg.Wait()
}

func TestExpiry(t *testing.T) {
	now := time.Now()
	c := NewCache(func() time.Time { return now })
	c.PutAdv(pipeAdv("urn:jxta:pipe-1", "g"))
	// Advance past the pipe advertisement lifetime.
	now = now.Add(advert.DefaultLifetime + time.Second)
	if _, err := c.Lookup(advert.TypePipe, "urn:jxta:pipe-1"); err != ErrNotFound {
		t.Fatalf("Lookup expired = %v, want ErrNotFound", err)
	}
	if c.Len() != 0 {
		t.Fatal("expired record not evicted on lookup")
	}
}

// A sweep evicts exactly the records expired by its time: each kind of
// advertisement lives as long as its own lifetime.
func TestSweep(t *testing.T) {
	now := time.Now()
	c := NewCache(func() time.Time { return now })
	c.PutAdv(pipeAdv("urn:jxta:pipe-1", "g"))
	c.PutAdv(pipeAdv("urn:jxta:pipe-2", "g"))
	pres := &advert.Presence{PeerID: "urn:jxta:cbid-9", Group: "g", Status: advert.StatusOnline, Seen: now}
	c.PutAdv(pres)
	// Presence lifetime (2m) is shorter than pipe lifetime (15m).
	now = now.Add(3 * time.Minute)
	c.mu.Lock()
	c.sweep(now)
	c.mu.Unlock()
	if c.Swept() != 1 || c.Len() != 2 {
		t.Fatalf("after sweep: %d swept, %d left; want 1 and 2", c.Swept(), c.Len())
	}
}

// A departed peer's records go without anyone looking them up: the puts
// of the peers that remain sweep the cache once a minute of its clock.
func TestPutSweepsDepartedPeer(t *testing.T) {
	now := time.Now()
	c := NewCache(func() time.Time { return now })
	gone := keys.PeerID("urn:jxta:cbid-gone")
	c.PutAdv(&advert.Pipe{PipeID: advert.GroupPipeID(gone, "g"), PipeType: advert.PipeUnicast, PeerID: gone, Group: "g"})
	c.PutAdv(&advert.Presence{PeerID: gone, Group: "g", Status: advert.StatusOffline, Seen: now})
	c.PutAdv(&advert.Stats{PeerID: gone, Group: "g"})

	// A resident keeps announcing itself; nothing reads the departed
	// peer's records.
	resident := func() {
		c.PutAdv(&advert.Presence{PeerID: "urn:jxta:cbid-here", Group: "g", Status: advert.StatusOnline, Seen: now})
	}
	for step := 0; step < 14; step++ {
		now = now.Add(time.Minute)
		resident()
	}
	if _, err := c.Lookup(advert.TypePipe, advert.GroupPipeID(gone, "g")); err != nil {
		t.Fatalf("pipe record gone before its lifetime was over: %v", err)
	}
	if c.Len() != 2 { // presence (2m) and stats (5m) swept, pipe (15m) and the resident left
		t.Fatalf("Len after 14 minutes = %d, want 2", c.Len())
	}
	now = now.Add(advert.DefaultLifetime - 14*time.Minute + time.Second)
	resident()
	if c.Len() != 1 {
		t.Fatalf("Len one lifetime after departure = %d, want 1 (the resident)", c.Len())
	}
	if got := c.Swept(); got != 3 {
		t.Fatalf("Swept = %d, want the departed peer's 3 records", got)
	}
}

func TestFindFilterAndSort(t *testing.T) {
	c := NewCache(time.Now)
	c.PutAdv(pipeAdv("urn:jxta:pipe-b", "g1"))
	c.PutAdv(pipeAdv("urn:jxta:pipe-a", "g1"))
	c.PutAdv(pipeAdv("urn:jxta:pipe-c", "g2"))
	recs := c.Find(advert.TypePipe, func(a advert.Advertisement) bool {
		return a.(*advert.Pipe).Group == "g1"
	})
	if len(recs) != 2 {
		t.Fatalf("Find returned %d records", len(recs))
	}
	if recs[0].Adv.AdvID() != "urn:jxta:pipe-a" || recs[1].Adv.AdvID() != "urn:jxta:pipe-b" {
		t.Fatal("Find output not sorted by AdvID")
	}
	all := c.Find(advert.TypePipe, nil)
	if len(all) != 3 {
		t.Fatalf("Find(nil) returned %d", len(all))
	}
	none := c.Find(advert.TypePeer, nil)
	if len(none) != 0 {
		t.Fatal("Find returned records of wrong type")
	}
}

func TestTypesDoNotCollide(t *testing.T) {
	c := NewCache(time.Now)
	// Same AdvID string under two different types must coexist.
	c.PutAdv(&advert.Presence{PeerID: "p", Group: "g", Status: advert.StatusOnline, Seen: time.Now()})
	c.PutAdv(&advert.FileList{PeerID: "p", Group: "g"})
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}
