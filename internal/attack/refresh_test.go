// The refresh surface. When a peer re-joins, the broker tells the group's
// residents that its pipe advertisement is the one they hold by sending
// its ID and the SHA-256 of its bytes (proto.OpAdvRefresh), and a
// resident re-puts the record of exactly those bytes or drops any other.
// Anyone who reaches a client's overlay:client service can send one. A
// forged refresh can re-put bytes the resident parsed already or drop a
// record; it can bring no bytes into the cache, bring back none that
// left it, and the record it drops is fetched and verified at its next
// use like any other.
package attack_test

import (
	"bytes"
	"crypto/sha256"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/discovery"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/waituntil"
)

// refreshSite is bob holding alice's signed pipe advertisement, pushed
// to him when she joined, and mallory's raw node beside them.
type refreshSite struct {
	s          *secureStack
	alice, bob *core.SecureClient
	raw        *attack.RawNode
	pipeID     string
	wire       []byte // the bytes of alice's pipe advertisement bob holds
}

func newRefreshSite(t *testing.T) *refreshSite {
	t.Helper()
	s := newSecureStack(t)
	r := &refreshSite{s: s}
	r.bob = s.join(t, "bob", "bob-secret-pw")
	r.alice = s.join(t, "alice", "alice-secret-pw")
	r.pipeID = advert.GroupPipeID(r.alice.PeerID(), "math")
	waituntil.Must(t, 5*time.Second, func() bool { return r.held() != nil }, "bob never received alice's pipe advertisement")
	r.wire = bytes.Clone(r.held().Doc.Canonical())
	var err error
	if r.raw, err = attack.NewRawNode(s.net, "urn:jxta:mallory-raw"); err != nil {
		t.Fatal(err)
	}
	return r
}

// held is bob's record of alice's pipe, or nil. It evicts an expired one.
func (r *refreshSite) held() *discovery.Record {
	rec, err := r.bob.Cache().Lookup(advert.TypePipe, r.pipeID)
	if err != nil {
		return nil
	}
	return rec
}

// refresh sends bob a forged refresh and returns once his endpoint has
// taken it and its handler has had time to run.
func (r *refreshSite) refresh(t *testing.T, id string, sum []byte) {
	t.Helper()
	_, rx, _, _ := r.bob.Endpoint().Counters()
	if err := r.raw.Replay(simnet.NodeID(r.bob.PeerID()), attack.SpoofedAdvRefresh(r.alice.PeerID(), id, sum)); err != nil {
		t.Fatal(err)
	}
	waituntil.Must(t, 5*time.Second, func() bool {
		_, now, _, _ := r.bob.Endpoint().Counters()
		return now > rx
	}, "the refresh never reached bob")
	time.Sleep(20 * time.Millisecond)
}

func digest(b []byte) []byte { sum := sha256.Sum256(b); return sum[:] }

// A refresh whose digest names no bytes bob holds, under an ID he holds
// no record for, adds nothing and changes nothing.
func TestRefreshUnknownDigestChangesNothing(t *testing.T) {
	r := newRefreshSite(t)
	rec, records := r.held(), r.bob.Cache().Len()
	unknown := digest([]byte("bytes bob never parsed"))
	r.refresh(t, advert.GroupPipeID("urn:jxta:cbid-nobody", "math"), unknown)
	r.refresh(t, advert.GroupPipeID("urn:jxta:cbid-nobody", "math"), digest(r.wire))
	if got := r.bob.Cache().Len(); got != records {
		t.Fatalf("refreshes of an ID bob does not hold moved his cache %d -> %d records", records, got)
	}
	if r.held() != rec {
		t.Fatal("refreshes of another ID touched alice's record")
	}
}

// A refresh naming bytes bob held once, since replaced, does not bring
// them back: the record of the other bytes is dropped and nothing takes
// its place.
func TestRefreshOfReplacedBytesDoesNotRestoreThem(t *testing.T) {
	r := newRefreshSite(t)
	other := bytes.Clone(r.wire)
	at := bytes.Index(other, []byte("<SignatureValue>")) + len("<SignatureValue>")
	other[at] ^= 1
	if _, err := r.bob.Cache().PutCanonical(other); err != nil {
		t.Fatal(err)
	}
	records := r.bob.Cache().Len()
	r.refresh(t, r.pipeID, digest(r.wire))
	if got := r.bob.Cache().Len(); got != records-1 {
		t.Fatalf("bob holds %d records after the refresh, want %d: the replaced record dropped", got, records-1)
	}
	if rec := r.held(); rec != nil {
		t.Fatalf("a refresh of replaced bytes left bob a record of %d bytes", len(rec.Doc.Canonical()))
	}
}

// A refresh of the exact bytes of a record that expired does not revive
// it: the record is dropped, so it is gone when bob's clock comes back.
func TestRefreshDoesNotReviveExpiredRecord(t *testing.T) {
	r := newRefreshSite(t)
	records := r.bob.Cache().Len()
	later := time.Now().Add(advert.DefaultLifetime + time.Minute)
	r.bob.Endpoint().SetClock(func() time.Time { return later })
	r.refresh(t, r.pipeID, digest(r.wire))
	if got := r.bob.Cache().Len(); got != records-1 {
		t.Fatalf("bob holds %d records after refreshing an expired one, want %d", got, records-1)
	}
	r.bob.Endpoint().SetClock(time.Now)
	if r.held() != nil {
		t.Fatal("a refresh revived an expired record")
	}
}

// A refresh whose digest is not 32 bytes, or that names no ID, is
// dropped: bob's record is the one he held, received when it was.
func TestRefreshMalformedDropped(t *testing.T) {
	r := newRefreshSite(t)
	rec := r.held()
	sum := digest([]byte("bytes bob never parsed"))
	r.refresh(t, r.pipeID, sum[:31])
	r.refresh(t, r.pipeID, append(sum, 0))
	r.refresh(t, r.pipeID, nil)
	r.refresh(t, "", sum)
	if got := r.held(); got != rec {
		t.Fatal("a malformed refresh touched alice's record")
	}
}

// A forged refresh that drops bob's valid record costs him one lookup
// and nothing else: his next message to alice fetches her advertisement
// from the broker, verifies it and is delivered, and no one raises an
// alert.
func TestRefreshForgedCostsOneLookup(t *testing.T) {
	r := newRefreshSite(t)
	eve := attack.NewEavesdropper(r.s.net)
	atAlice, atBob := events.NewCollector(r.alice.Bus()), events.NewCollector(r.bob.Bus())
	r.refresh(t, r.pipeID, digest([]byte("bytes bob never parsed")))
	if r.held() != nil {
		t.Fatal("a refresh naming other bytes left bob's record in place")
	}
	say(t, r.bob, r.alice.PeerID(), atAlice, "after the forged refresh")
	rec := r.held()
	if rec == nil || !bytes.Equal(rec.Doc.Canonical(), r.wire) {
		t.Fatal("bob did not hold alice's advertisement again after his message")
	}
	lookups := 0
	for _, frame := range eve.FramesTo(simnet.NodeID(r.s.br.PeerID())) {
		f, err := endpoint.ParseFrame(frame)
		if err != nil || keys.PeerID(f.Src) != r.bob.PeerID() {
			continue
		}
		if op, _ := f.Msg.GetString(proto.ElemOp); op == proto.OpLookupPipe {
			lookups++
		}
	}
	if lookups != 1 {
		t.Fatalf("bob asked the broker for a pipe %d times, want 1", lookups)
	}
	for who, c := range map[string]*events.Collector{"alice": atAlice, "bob": atBob} {
		if got := c.OfType(events.SecurityAlert); len(got) != 0 {
			t.Fatalf("%s raised %d alerts: %v", who, len(got), got[0].Attrs())
		}
	}
}
