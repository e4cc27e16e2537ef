package discovery

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/xmldoc"
)

// checkIndex fails t unless byWire holds exactly the current records put
// through PutCanonical, each under its own wire: no entry outlives or
// stands in for its record.
func checkIndex(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.RLock()
	defer c.mu.RUnlock()
	indexed := 0
	for key, rec := range c.recs {
		if rec.wire == "" {
			continue
		}
		indexed++
		if c.byWire[rec.wire] != rec {
			t.Fatalf("record %v is not indexed under its wire", key)
		}
		if string(rec.Doc.Canonical()) != rec.wire {
			t.Fatalf("record %v is indexed under bytes it was not parsed from", key)
		}
	}
	if len(c.byWire) != indexed {
		t.Fatalf("the index holds %d entries for %d indexed records", len(c.byWire), indexed)
	}
}

// modelRec is what a plain map model remembers of one put.
type modelRec struct {
	wire     string // canonical bytes put
	indexed  bool   // put through PutCanonical
	received time.Time
	lifetime time.Duration
}

// TestPutCanonicalModel drives random sequences of puts (all three ways
// in), removals, clock advances, lookups and sweeps against a plain map
// of what was last put under each (type, id). A PutCanonical parses
// exactly when the model holds no fresh record of the same bytes put the
// same way, so an index entry that outlived a replace, a removal or an
// expiry shows up as a missing parse; every lookup must find what the
// model says is there, received when the model says; and after every
// step the index holds the current indexed records and nothing else.
func TestPutCanonicalModel(t *testing.T) {
	// Two pipes (15 min) and two presences (2 min), three byte variants
	// each: 12 documents under 4 (type, id) keys.
	var advs []advert.Advertisement
	for p := 0; p < 2; p++ {
		peer := keys.PeerID(fmt.Sprintf("urn:jxta:cbid-%d", p))
		for v := 0; v < 3; v++ {
			advs = append(advs,
				&advert.Pipe{PipeID: advert.GroupPipeID(peer, "g"), PipeType: advert.PipeUnicast, Name: fmt.Sprintf("msg/%d", v), PeerID: peer, Group: "g"},
				&advert.Presence{PeerID: peer, Group: "g", Status: advert.StatusOnline, Seen: time.Unix(int64(v), 0).UTC()})
		}
	}
	wires := make([][]byte, len(advs))
	for i, a := range advs {
		doc, err := a.Document()
		if err != nil {
			t.Fatal(err)
		}
		wires[i] = bytes.Clone(doc.Canonical())
	}
	keyOf := func(i int) cacheKey { return cacheKey{advs[i].AdvType(), advs[i].AdvID()} }

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := time.Unix(1_000_000, 0)
		c := NewCache(func() time.Time { return now })
		model := map[cacheKey]modelRec{}
		fresh := func(k cacheKey) (modelRec, bool) {
			m, ok := model[k]
			return m, ok && now.Sub(m.received) <= m.lifetime
		}
		for step := 0; step < 500; step++ {
			i := rng.Intn(len(advs))
			k := keyOf(i)
			switch op := rng.Intn(9); op {
			case 0, 1, 2: // PutCanonical, from a frame the caller reuses
				frame := bytes.Clone(wires[i])
				m, ok := fresh(k)
				want := uint64(1)
				if ok && m.indexed && m.wire == string(frame) {
					want = 0
				}
				before := advert.ParseCalls()
				rec, err := c.PutCanonical(frame)
				if err != nil {
					t.Fatal(err)
				}
				if got := advert.ParseCalls() - before; got != want {
					t.Fatalf("seed %d step %d: PutCanonical parsed %d times, want %d", seed, step, got, want)
				}
				for j := range frame {
					frame[j] = 0 // the cache keeps no view of what it was handed
				}
				if string(rec.Doc.Canonical()) != string(wires[i]) || !rec.Received.Equal(now) {
					t.Fatalf("seed %d step %d: PutCanonical returned another record", seed, step)
				}
				model[k] = modelRec{string(wires[i]), true, now, advs[i].Lifetime()}
			case 3: // Put, parsing a tree of its own
				doc, err := xmldoc.ParseCanonical(bytes.Clone(wires[i]))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.Put(doc); err != nil {
					t.Fatal(err)
				}
				model[k] = modelRec{string(wires[i]), false, now, advs[i].Lifetime()}
			case 4: // PutParsed
				doc, err := advs[i].Document()
				if err != nil {
					t.Fatal(err)
				}
				if err := c.PutParsed(doc, advs[i]); err != nil {
					t.Fatal(err)
				}
				model[k] = modelRec{string(wires[i]), false, now, advs[i].Lifetime()}
			case 5:
				c.Remove(k.typ, k.id)
				delete(model, k)
			case 6:
				now = now.Add(time.Duration(rng.Intn(90)) * time.Second)
			case 7:
				c.Sweep()
				live := 0
				for key := range model {
					if _, ok := fresh(key); ok {
						live++
					}
				}
				if c.Len() != live {
					t.Fatalf("seed %d step %d: %d records after a sweep, %d fresh in the model", seed, step, c.Len(), live)
				}
			case 8:
				m, ok := fresh(k)
				rec, err := c.Lookup(k.typ, k.id)
				switch {
				case !ok && err == nil:
					t.Fatalf("seed %d step %d: lookup of %v found a record the model does not hold", seed, step, k)
				case ok && err != nil:
					t.Fatalf("seed %d step %d: lookup of %v: %v", seed, step, k, err)
				case ok && (string(rec.Doc.Canonical()) != m.wire || !rec.Received.Equal(m.received)):
					t.Fatalf("seed %d step %d: lookup of %v found another record than the model's", seed, step, k)
				}
			}
			checkIndex(t, c)
			// Every key, as the model sees it, without evicting anything:
			// a lookup here would take expired records out of the way of
			// the puts and sweeps that must.
			for j := range advs {
				k := keyOf(j)
				m, ok := fresh(k)
				c.mu.RLock()
				rec := c.recs[k]
				c.mu.RUnlock()
				switch {
				case !ok && rec != nil && !rec.Expired(now):
					t.Fatalf("seed %d step %d: %v holds a fresh record the model does not", seed, step, k)
				case ok && rec == nil:
					t.Fatalf("seed %d step %d: %v holds no record", seed, step, k)
				case ok && (string(rec.Doc.Canonical()) != m.wire || !rec.Received.Equal(m.received)):
					t.Fatalf("seed %d step %d: %v holds another record than the model's", seed, step, k)
				}
			}
		}
	}
}

// TestRepushRacesReplace re-pushes one advertisement's bytes from some
// goroutines while others replace its record — with other bytes, and in
// parsed form — and others look it up. Every PutCanonical returns a
// record of the bytes it was handed, and the index ends as it must.
func TestRepushRacesReplace(t *testing.T) {
	c := NewCache(time.Now)
	peer := keys.PeerID("urn:jxta:cbid-1")
	pipe := func(name string) *advert.Pipe {
		return &advert.Pipe{PipeID: advert.GroupPipeID(peer, "g"), PipeType: advert.PipeUnicast, Name: name, PeerID: peer, Group: "g"}
	}
	var wires [][]byte
	for _, name := range []string{"a", "b"} {
		doc, err := pipe(name).Document()
		if err != nil {
			t.Fatal(err)
		}
		wires = append(wires, bytes.Clone(doc.Canonical()))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				wire := wires[(g+i)%2]
				rec, err := c.PutCanonical(wire)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(rec.Doc.Canonical(), wire) {
					t.Error("PutCanonical returned a record of other bytes")
					return
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			c.PutAdv(pipe("c"))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if rec, err := c.Lookup(advert.TypePipe, advert.GroupPipeID(peer, "g")); err == nil && len(rec.Doc.Canonical()) == 0 {
				t.Error("empty canonical form")
				return
			}
			if i%50 == 0 {
				c.Remove(advert.TypePipe, advert.GroupPipeID(peer, "g"))
			}
		}
	}()
	wg.Wait()
	checkIndex(t, c)
	if c.Len() > 1 {
		t.Fatalf("%d records under one (type, id)", c.Len())
	}
}
