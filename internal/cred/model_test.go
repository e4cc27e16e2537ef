package cred_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/xdsig"
	"jxtaoverlay/internal/xmldoc"
)

// The verdict store's model: whatever a long-lived trust store has seen,
// its answer on a chain or a signed document at a time is the answer a
// store built at that moment gives — the same error, or the same signer.
// The inputs are what the store's keys must tell apart: honest chains and
// documents; links re-signed by another key, stretched (by an hour, and
// by 2^64 ns) or with their share swapped; a link issued by a client;
// chains cut to their leaf; and the clock before, inside and past every
// window, its edges included.

// modelWorld is the pool a model run draws its inputs from.
type modelWorld struct {
	anchor *cred.Credential
	chains [][]*cred.Credential
	docs   []*xmldoc.Element
	times  []time.Time
}

func modelKey(t testing.TB, seed int64) (*keys.KeyPair, keys.PeerID) {
	t.Helper()
	kp, err := keys.KeyPairFrom(rand.New(rand.NewSource(seed)), keys.DefaultRSABits)
	if err != nil {
		t.Fatal(err)
	}
	id, err := keys.CBID(kp.Public())
	if err != nil {
		t.Fatal(err)
	}
	return kp, id
}

func newModelWorld(t testing.TB) *modelWorld {
	t.Helper()
	t0 := time.Now().UTC()
	must := func(c *cred.Credential, err error) *cred.Credential {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	admKP, admID := modelKey(t, 300)
	b1KP, b1ID := modelKey(t, 301)
	b2KP, b2ID := modelKey(t, 302)
	c1KP, c1ID := modelKey(t, 303)
	c2KP, c2ID := modelKey(t, 304)
	c3KP, c3ID := modelKey(t, 305)
	xKP, xID := modelKey(t, 306)

	adm := must(cred.SelfSigned(admKP, "admin", 24*time.Hour))
	// b1 runs out after an hour and c1, which it issued, lives three: the
	// cut chain [c1] ninety minutes in is the case a remembered issuer
	// used to answer.
	b1 := must(cred.IssueAt(t0, admKP, admID, b1ID, "broker-1", cred.RoleBroker, b1KP.Public(), time.Hour))
	b2 := must(cred.IssueAt(t0, admKP, admID, b2ID, "broker-2", cred.RoleBroker, b2KP.Public(), 3*time.Hour))
	c1 := must(cred.IssueAt(t0, b1KP, b1ID, c1ID, "alice", cred.RoleClient, c1KP.Public(), 3*time.Hour))
	c2 := must(cred.IssueAt(t0, b2KP, b2ID, c2ID, "bob", cred.RoleClient, c2KP.Public(), time.Hour))
	// c3 is not valid until half an hour in.
	c3 := must(cred.IssueAt(t0.Add(31*time.Minute), b2KP, b2ID, c3ID, "carol", cred.RoleClient, c3KP.Public(), time.Hour))
	// Issued by alice, a client, under her credential.
	minted := must(cred.IssueAt(t0, c1KP, c1ID, xID, "alice", cred.RoleClient, xKP.Public(), time.Hour))
	// The same body as c1, signed by another key.
	resigned := must(cred.IssueAt(t0, xKP, b1ID, c1ID, "alice", cred.RoleClient, c1KP.Public(), 3*time.Hour))
	resignedB1 := must(cred.IssueAt(t0, xKP, admID, b1ID, "broker-1", cred.RoleBroker, b1KP.Public(), time.Hour))
	stretch := func(c *cred.Credential, by ...time.Duration) *cred.Credential {
		v := c.Clone()
		for _, d := range by {
			v.NotAfter = v.NotAfter.Add(d)
		}
		return v
	}
	xShare, _ := xKP.Public().AgreementShare()
	swapped := c1.Clone()
	swapped.Key = c1.Key.WithShare(&xShare)
	dropped := c1.Clone()
	dropped.Key = c1.Key.WithShare(nil)

	w := &modelWorld{anchor: adm}
	for _, chain := range [][]*cred.Credential{
		{c1, b1}, {c2, b2}, {c3, b2}, {b1}, {b2}, {adm}, {c1.Clone(), b1.Clone()},
		{c1}, {c2}, {c3}, // cut to the leaf
		{minted, c1, b1}, {minted, c1}, // issued by a client
		{resigned, b1}, {c1, resignedB1}, {resignedB1},
		{stretch(c1, time.Hour), b1}, {c1, stretch(b1, time.Hour)}, {stretch(b1, time.Hour)},
		{stretch(c1, math.MaxInt64, math.MaxInt64, 2), b1}, {stretch(b1, math.MaxInt64, math.MaxInt64, 2)},
		{swapped, b1}, {dropped, b1},
		{c1, b2}, {c2, b1}, // broken
	} {
		w.chains = append(w.chains, chain)
	}

	docOf := func(name string, kp *keys.KeyPair, chain ...*cred.Credential) *xmldoc.Element {
		t.Helper()
		doc := xmldoc.NewTree("PipeAdvertisement",
			xmldoc.New("Id", "urn:jxta:pipe-"+name),
			xmldoc.New("Type", "JxtaUnicast"),
			xmldoc.New("Name", "msg/"+name),
		)
		if err := xdsig.Sign(doc, kp, chain...); err != nil {
			t.Fatal(err)
		}
		// What a peer verifies is a document it parsed.
		parsed, err := xmldoc.ParseCanonical(doc.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		return parsed
	}
	d1 := docOf("alice", c1KP, c1, b1)
	tampered := d1.Clone()
	tampered.Child("Id").SetText("urn:jxta:pipe-evil")
	w.docs = []*xmldoc.Element{
		d1, docOf("bob", c2KP, c2, b2), docOf("carol", c3KP, c3, b2),
		docOf("alice-again", c1KP, c1, b1), // a new document by a known signer
		docOf("minted", xKP, minted, c1, b1),
		docOf("swapped", c1KP, swapped, b1),
		docOf("stretched", c1KP, stretch(c1, time.Hour), b1),
		docOf("stretched-broker", c1KP, c1, stretch(b1, time.Hour)),
		docOf("wrapped", c1KP, stretch(c1, math.MaxInt64, math.MaxInt64, 2), b1),
		docOf("resigned", c1KP, resigned, b1),
		docOf("cut", c1KP, c1),
		tampered,
	}

	for _, d := range []time.Duration{-2 * time.Hour, 0, 20 * time.Minute, 45 * time.Minute, 90 * time.Minute, 150 * time.Minute, 4 * time.Hour} {
		w.times = append(w.times, t0.Add(d))
	}
	for _, c := range []*cred.Credential{b1, c1, c2, c3} {
		w.times = append(w.times, c.NotBefore, c.NotBefore.Add(-time.Nanosecond), c.NotAfter, c.NotAfter.Add(time.Nanosecond))
	}
	return w
}

// step draws one input and checks the long-lived store's verdict on it at
// now against a fresh store's.
func (w *modelWorld) step(t *testing.T, rng *rand.Rand, long *cred.TrustStore, vc *xdsig.VerifyCache, now time.Time) {
	fresh, err := cred.NewTrustStore(w.anchor)
	if err != nil {
		t.Error(err)
		return
	}
	if rng.Intn(2) == 0 {
		i := rng.Intn(len(w.chains))
		got, want := long.VerifyChain(now, w.chains[i]...), fresh.VerifyChain(now, w.chains[i]...)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("chain %d at %v: long-lived store says %v, a fresh one %v", i, now, got, want)
		}
		return
	}
	i := rng.Intn(len(w.docs))
	got, gotErr := vc.VerifyTrusted(w.docs[i], now)
	want, wantErr := xdsig.VerifyTrusted(w.docs[i], fresh, now)
	switch {
	case fmt.Sprint(gotErr) != fmt.Sprint(wantErr):
		t.Errorf("document %d at %v: long-lived store says %v, a fresh one %v", i, now, gotErr, wantErr)
	case gotErr == nil && (got.Signer.Subject != want.Signer.Subject || !got.Signer.Key.Equal(want.Signer.Key)):
		t.Errorf("document %d at %v: long-lived store's signer %s, a fresh one's %s", i, now, got.Signer.Subject, want.Signer.Subject)
	}
}

// run drives n steps from seed, moving the clock now and then.
func (w *modelWorld) run(t *testing.T, seed int64, n int, long *cred.TrustStore, vc *xdsig.VerifyCache, capacity int) {
	rng := rand.New(rand.NewSource(seed))
	now := w.times[1]
	for i := 0; i < n; i++ {
		if rng.Intn(8) == 0 {
			now = w.times[rng.Intn(len(w.times))]
		}
		w.step(t, rng, long, vc, now)
		if got := long.Len(); got > capacity {
			t.Errorf("store holds %d verdicts, bound %d", got, capacity)
		}
	}
}

func TestTrustStoreModel(t *testing.T) {
	w := newModelWorld(t)
	for _, capacity := range []int{3, 8, cred.StoreCapacity} {
		t.Run(fmt.Sprintf("capacity %d", capacity), func(t *testing.T) {
			long, err := cred.NewTrustStoreCapacity(capacity, w.anchor)
			if err != nil {
				t.Fatal(err)
			}
			w.run(t, int64(capacity), 1500, long, xdsig.NewVerifyCache(long), capacity)
			if hits, _ := long.ChainCacheStats(); capacity == cred.StoreCapacity && hits == 0 {
				t.Error("the model never hit a link verdict")
			}
			if hits, _ := long.DocumentCacheStats(); capacity == cred.StoreCapacity && hits == 0 {
				t.Error("the model never hit a document verdict")
			}
		})
	}
}

// TestTrustStoreModelConcurrent is the model with one store shared by
// several goroutines, each on a clock of its own: every peer's deliveries
// read its one store at once. Run it with -race.
func TestTrustStoreModelConcurrent(t *testing.T) {
	w := newModelWorld(t)
	const capacity = 8
	long, err := cred.NewTrustStoreCapacity(capacity, w.anchor)
	if err != nil {
		t.Fatal(err)
	}
	vc := xdsig.NewVerifyCache(long)
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(t, 100+g, 400, long, vc, capacity)
		}()
	}
	wg.Wait()
}
