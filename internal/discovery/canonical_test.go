package discovery

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/xmldoc"
)

// checkIndex fails t unless the digest index holds exactly the current
// records put through PutCanonical, each under the SHA-256 of its bytes.
func checkIndex(t *testing.T, c *Cache) {
	t.Helper()
	if err := c.CheckIndex(); err != nil {
		t.Fatal(err)
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
// in), refreshes, removals, forgets, clock advances, lookups and sweeps
// against a plain map of what was last put under each (type, id). A
// PutCanonical parses exactly when the model holds no fresh record of the
// same bytes put the same way, so an index entry that outlived a replace,
// a removal or an expiry shows up as a missing parse; a Refresh re-puts
// exactly such a record and drops any other one under its key; a Forget
// drops only a record of the bytes it names; every lookup must find what
// the model says is there, received when the model says; and after every
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

	// What the refreshes met, over every seed: each case must come up.
	refreshes := map[string]int{}
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
			switch op := rng.Intn(12); op {
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
			case 9, 10: // Refresh, naming bytes put under k or no bytes at all
				sum := sha256.Sum256(wires[i])
				if op == 10 {
					sum[rng.Intn(len(sum))] ^= 1
				}
				m, held := model[k]
				parsed := advert.ParseCalls()
				rec := c.Refresh(k.typ, []byte(k.id), sum)
				if p := advert.ParseCalls() - parsed; p != 0 {
					t.Fatalf("seed %d step %d: Refresh parsed %d times", seed, step, p)
				}
				_, live := fresh(k)
				hit := live && m.indexed && sha256.Sum256([]byte(m.wire)) == sum
				switch {
				case !held:
					refreshes["absent"]++
				case hit:
					refreshes["hit"]++
				case !live:
					refreshes["expired"]++
				case !m.indexed:
					refreshes["parsed record"]++
				default:
					refreshes["other bytes"]++
				}
				if hit != (rec != nil) {
					t.Fatalf("seed %d step %d: Refresh of %v returned %v, want a record: %v", seed, step, k, rec, hit)
				}
				switch {
				case hit:
					if string(rec.Doc.Canonical()) != m.wire || !rec.Received.Equal(now) {
						t.Fatalf("seed %d step %d: Refresh returned another record", seed, step)
					}
					m.received = now
					model[k] = m
				case held:
					delete(model, k)
				}
			case 5:
				remove(c, k.typ, k.id)
				delete(model, k)
			case 11: // Forget, of a tree of wires[i]'s bytes: a record of other bytes stays
				doc, err := xmldoc.ParseCanonical(bytes.Clone(wires[i]))
				if err != nil {
					t.Fatal(err)
				}
				c.Forget(advs[i], doc)
				if m, ok := model[k]; ok && m.wire == string(wires[i]) {
					delete(model, k)
				}
			case 6:
				now = now.Add(time.Duration(rng.Intn(90)) * time.Second)
			case 7:
				c.mu.Lock()
				c.sweep(now)
				c.mu.Unlock()
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
	for _, want := range []string{"hit", "other bytes", "parsed record", "expired", "absent"} {
		if refreshes[want] == 0 {
			t.Errorf("no refresh met the %q case: %v", want, refreshes)
		}
	}
}

// TestRepushRacesReplace re-pushes one advertisement's bytes, and
// refreshes it by digest, from some goroutines while others replace its
// record — with other bytes, and in parsed form — and others look it up
// and remove it. Every PutCanonical returns a record of the bytes it was
// handed, every Refresh that returns a record returns one of the bytes
// it named, and the index ends as it must.
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
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := []byte(advert.GroupPipeID(peer, "g"))
			for i := 0; i < 300; i++ {
				wire := wires[(g+i)%2]
				if rec := c.Refresh(advert.TypePipe, id, sha256.Sum256(wire)); rec != nil && !bytes.Equal(rec.Doc.Canonical(), wire) {
					t.Error("Refresh returned a record of other bytes")
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
				remove(c, advert.TypePipe, advert.GroupPipeID(peer, "g"))
			}
		}
	}()
	wg.Wait()
	checkIndex(t, c)
	if c.Len() > 1 {
		t.Fatalf("%d records under one (type, id)", c.Len())
	}
}

// remove drops the record under (typ, id), as a replacing put or a
// refresh of other bytes does.
func remove(c *Cache, typ, id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drop(cacheKey{typ, id})
}
