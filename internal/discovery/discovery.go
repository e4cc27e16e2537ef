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
// parses it from a copy made for the cache, not from the frame:
// PutCanonical makes that copy itself; the broker's publish makes its own
// before it verifies.
//
// A record is replaced by the next one put under its (type, id) and
// otherwise lives one advertisement lifetime: lookups drop an expired
// record they touch, and a put sweeps the whole cache when a minute has
// passed since the last sweep — all by the clock of the peer the cache
// belongs to, fixed when it is made.
//
// Advertisement bytes have one way in, PutCanonical, and it remembers
// the SHA-256 of the bytes each record was parsed from, in one index by
// that digest. The same bytes again refresh the record they parsed to,
// exactly as a new parse would store it, without the copy or the parse;
// so does Refresh, which names a record by its (type, id) and the digest
// of its bytes — a re-join's deterministic pipe advertisement, which the
// broker announces to every resident that way instead of pushing it
// again. A Refresh naming other bytes than a record holds drops the
// record. Nothing here is verified either way: a cached document is
// verified where it is used.
//
// Remote discovery — asking a broker for advertisements the local cache
// lacks — lives in the client/broker modules; this package is the shared
// storage layer.
package discovery

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
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

	// sum is the SHA-256 of the bytes a PutCanonical record was parsed
	// from: its key in the cache's bySum index. summed is false for a
	// record put in parsed form, which is not indexed.
	sum    [sha256.Size]byte
	summed bool
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
	mu   sync.RWMutex
	recs map[cacheKey]*Record
	// bySum indexes each current PutCanonical record by its sum. An
	// entry leaves with its record: every delete from recs, and every
	// replace, goes through store or drop. Equal bytes parse to the same
	// (type, id), so one digest names at most one record.
	bySum     map[[sha256.Size]byte]*Record
	now       func() time.Time
	lastSweep time.Time
	swept     uint64
}

// NewCache returns an empty cache that receives and expires records at
// the time now reports: its peer's clock (endpoint.Service.Now).
func NewCache(now func() time.Time) *Cache {
	return &Cache{recs: make(map[cacheKey]*Record), bySum: make(map[[sha256.Size]byte]*Record), now: now}
}

// PutCanonical stores the advertisement whose canonical document raw
// holds — a view of a received frame, which it does not keep — and
// returns the record. raw is copied and parsed with
// xmldoc.ParseCanonical, unless it is exactly the bytes a fresh record
// was parsed from: then that record is put again, received now, which
// is what the copy and the parse would have stored.
func (c *Cache) PutCanonical(raw []byte) (*Record, error) {
	sum := sha256.Sum256(raw)
	c.mu.Lock()
	if rec := c.bySum[sum]; rec != nil {
		if now := c.now(); !rec.Expired(now) {
			fresh := c.reput(rec, now)
			c.mu.Unlock()
			return fresh, nil
		}
	}
	c.mu.Unlock()
	doc, err := xmldoc.ParseCanonical(bytes.Clone(raw))
	if err != nil {
		return nil, err
	}
	adv, err := advert.Parse(doc)
	if err != nil {
		return nil, err
	}
	rec := &Record{Doc: doc, Adv: adv, sum: sum, summed: true}
	c.mu.Lock()
	defer c.mu.Unlock()
	rec.Received = c.now()
	c.store(rec, rec.Received)
	return rec, nil
}

// Refresh is told that the advertisement stored under (typ, id) is,
// now, the one whose canonical bytes hash to sum. A fresh record parsed
// from exactly those bytes is put again, received now, and returned,
// as PutCanonical of those bytes would. Any other record under that key
// — of other bytes, put in parsed form, or expired — is dropped, and
// with no record there nothing happens; both return nil. id is read,
// not kept.
func (c *Cache) Refresh(typ string, id []byte, sum [sha256.Size]byte) *Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.recs[cacheKey{typ, string(id)}]
	if rec == nil {
		return nil
	}
	if now := c.now(); rec.summed && rec.sum == sum && !rec.Expired(now) {
		return c.reput(rec, now)
	}
	c.drop(cacheKey{rec.Adv.AdvType(), rec.Adv.AdvID()}) // the record's own key: no string of id
	return nil
}

// reput stores rec again, received at now, and returns the new record:
// the same document and advertisement, so no copy and no parse.
func (c *Cache) reput(rec *Record, now time.Time) *Record {
	fresh := &Record{Doc: rec.Doc, Adv: rec.Adv, Received: now, sum: rec.sum, summed: rec.summed}
	c.store(fresh, now)
	return fresh
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
	c.store(&Record{Doc: doc, Adv: adv, Received: now}, now)
	return nil
}

// store puts rec in place of whatever its (type, id) held, at now,
// sweeping first when a minute has passed since the last sweep.
func (c *Cache) store(rec *Record, now time.Time) {
	if now.Sub(c.lastSweep) >= sweepInterval {
		c.sweep(now)
	}
	key := cacheKey{rec.Adv.AdvType(), rec.Adv.AdvID()}
	if old := c.recs[key]; old != nil && old.summed {
		delete(c.bySum, old.sum)
	}
	c.recs[key] = rec
	if rec.summed {
		c.bySum[rec.sum] = rec
	}
}

// drop deletes the record stored under key, and its index entry.
func (c *Cache) drop(key cacheKey) {
	if rec := c.recs[key]; rec != nil && rec.summed {
		delete(c.bySum, rec.sum)
	}
	delete(c.recs, key)
}

// PutAdv serializes and stores an advertisement (unsigned path), as
// PutParsed: adv is the cache's from here on.
func (c *Cache) PutAdv(adv advert.Advertisement) error {
	doc, err := adv.Document()
	if err != nil {
		return err
	}
	return c.PutParsed(doc, adv)
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
		c.drop(cacheKey{rec.Adv.AdvType(), rec.Adv.AdvID()})
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
			c.drop(key)
			continue
		}
		if match == nil || match(rec.Adv) {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Adv.AdvID() < out[j].Adv.AdvID() })
	return out
}

// sweep evicts every record expired at now. Puts run it once a minute;
// nothing else needs to.
func (c *Cache) sweep(now time.Time) {
	for key, rec := range c.recs {
		if rec.Expired(now) {
			c.drop(key)
			c.swept++
		}
	}
	c.lastSweep = now
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

// CheckIndex reports whether the digest index holds exactly the current
// records put through PutCanonical, each under the SHA-256 of its
// canonical bytes: no entry outlives or stands in for its record. Tests
// and fuzz targets call it after the operations they drive.
func (c *Cache) CheckIndex() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	indexed := 0
	for key, rec := range c.recs {
		if !rec.summed {
			continue
		}
		indexed++
		if c.bySum[rec.sum] != rec {
			return fmt.Errorf("discovery: record %v is not indexed under its digest", key)
		}
		if sha256.Sum256(rec.Doc.Canonical()) != rec.sum {
			return fmt.Errorf("discovery: record %v is indexed under the digest of bytes it was not parsed from", key)
		}
	}
	if len(c.bySum) != indexed {
		return fmt.Errorf("discovery: the index holds %d entries for %d indexed records", len(c.bySum), indexed)
	}
	return nil
}
