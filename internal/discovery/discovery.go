// Package discovery implements the local advertisement cache every JXTA
// peer maintains. Records keep both the parsed advertisement and the raw
// XML document: signature verification (xdsig) must run over the exact
// bytes that crossed the wire, not a re-serialization.
//
// Ownership: a document or advertisement given to the cache is shared
// and read-only from then on. The cache stores the tree it is handed —
// no copy — and hands the same tree to every reader, on any goroutine,
// for the record's lifetime; neither the giver nor a reader may change
// it (a changed copy is a Clone). Reading is safe as it stands: an
// element's canonical memo is atomic, and xdsig verifies through
// CanonicalSkip without detaching anything. A tree parsed from a received
// frame is views of the bytes it was parsed from, so whoever caches one
// parses it from a copy made for the cache (client.cacheAdv, the broker's
// publish and federation ingest), not from the frame.
//
// A record is replaced by the next one put under its (type, id) and
// otherwise lives one advertisement lifetime: lookups drop an expired
// record they touch, and a put sweeps the whole cache when a minute has
// passed since the last sweep — all by the clock of the peer the cache
// belongs to, fixed when it is made.
//
// Remote discovery — asking a broker for advertisements the local cache
// lacks — lives in the client/broker modules; this package is the shared
// storage layer.
package discovery

import (
	"errors"
	"sort"
	"sync"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/xmldoc"
)

// Record is one cached advertisement, shared and read-only.
type Record struct {
	// Doc is the document exactly as received (signatures included).
	Doc *xmldoc.Element
	// Adv is the parsed payload.
	Adv advert.Advertisement
	// Received is when the record entered the cache.
	Received time.Time
}

// Expired reports whether the record has outlived its advertisement's
// lifetime at the given instant.
func (r *Record) Expired(now time.Time) bool {
	return now.Sub(r.Received) > r.Adv.Lifetime()
}

type cacheKey struct{ typ, id string }

// sweepInterval is how much of its peer's time passes between the sweeps
// that puts trigger.
const sweepInterval = time.Minute

// Cache is a concurrency-safe advertisement store. Expiry is lazy on the
// read side and swept on the write side.
type Cache struct {
	mu        sync.RWMutex
	recs      map[cacheKey]*Record
	now       func() time.Time
	lastSweep time.Time
	swept     uint64
}

// NewCache returns an empty cache that receives and expires records at
// the time now reports: its peer's clock (endpoint.Service.Now).
func NewCache(now func() time.Time) *Cache {
	return &Cache{recs: make(map[cacheKey]*Record), now: now}
}

// Put parses and stores a document, replacing any record with the same
// (type, id).
func (c *Cache) Put(doc *xmldoc.Element) (advert.Advertisement, error) {
	adv, err := advert.Parse(doc)
	if err != nil {
		return nil, err
	}
	return adv, c.PutParsed(doc, adv)
}

// PutParsed stores a document whose parsed form the caller already has
// (the broker publish path parses exactly once — in its acceptance
// policy — and hands both forms here). adv must be the parse of doc, or
// what doc was serialized from. Both are the cache's from here on (see
// the package comment).
func (c *Cache) PutParsed(doc *xmldoc.Element, adv advert.Advertisement) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	if now.Sub(c.lastSweep) >= sweepInterval {
		c.sweep(now)
	}
	c.recs[cacheKey{adv.AdvType(), adv.AdvID()}] = &Record{Doc: doc, Adv: adv, Received: now}
	return nil
}

// PutAdv serializes and stores an advertisement (unsigned path).
func (c *Cache) PutAdv(adv advert.Advertisement) error {
	doc, err := adv.Document()
	if err != nil {
		return err
	}
	_, err = c.Put(doc)
	return err
}

// ErrNotFound is returned by Lookup when no fresh record exists.
var ErrNotFound = errors.New("discovery: advertisement not found")

// Lookup returns the fresh record with the given type and id. Expired
// records are evicted and reported as missing.
func (c *Cache) Lookup(advType, id string) (*Record, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fresh(c.recs[cacheKey{advType, id}])
}

// LookupID is Lookup for an id held as bytes (advert.GroupPipeKey): the
// map is indexed by a view of them, so it builds no string.
func (c *Cache) LookupID(advType string, id []byte) (*Record, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fresh(c.recs[cacheKey{advType, string(id)}])
}

// fresh returns rec if it is there and fresh, evicting it if it expired.
func (c *Cache) fresh(rec *Record) (*Record, error) {
	if rec == nil {
		return nil, ErrNotFound
	}
	if rec.Expired(c.now()) {
		delete(c.recs, cacheKey{rec.Adv.AdvType(), rec.Adv.AdvID()})
		return nil, ErrNotFound
	}
	return rec, nil
}

// Find returns fresh records of the given type matching the predicate
// (nil matches all), sorted by AdvID for deterministic output.
func (c *Cache) Find(advType string, match func(advert.Advertisement) bool) []*Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	var out []*Record
	for key, rec := range c.recs {
		if key.typ != advType {
			continue
		}
		if rec.Expired(now) {
			delete(c.recs, key)
			continue
		}
		if match == nil || match(rec.Adv) {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Adv.AdvID() < out[j].Adv.AdvID() })
	return out
}

// Remove deletes the record with the given type and id.
func (c *Cache) Remove(advType, id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.recs, cacheKey{advType, id})
}

// Sweep evicts every expired record and returns how many were removed.
// Puts run it once a minute; nothing else needs to.
func (c *Cache) Sweep() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sweep(c.now())
}

func (c *Cache) sweep(now time.Time) int {
	n := 0
	for key, rec := range c.recs {
		if rec.Expired(now) {
			delete(c.recs, key)
			n++
		}
	}
	c.lastSweep = now
	c.swept += uint64(n)
	return n
}

// Swept returns how many expired records sweeps have evicted.
func (c *Cache) Swept() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.swept
}

// Len returns the number of records currently stored (including any not
// yet lazily expired).
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.recs)
}
