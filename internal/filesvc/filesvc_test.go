package filesvc_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/filesvc"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
)

type harness struct {
	t   *testing.T
	net *simnet.Network
	br  *broker.Broker
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	net := simnet.NewNetwork(simnet.ProfileLocal)
	t.Cleanup(net.Close)
	db := userdb.NewStoreIter(4)
	db.Register("alice", "pw", "lab")
	db.Register("bob", "pw", "lab")
	br, err := broker.New(broker.Config{
		Name: "b", PeerID: keys.LegacyPeerID("b"), Net: net,
		DB: broker.LocalDB(db),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(br.Close)
	return &harness{t: t, net: net, br: br}
}

func (h *harness) peer(alias string) (*client.Client, *filesvc.Service) {
	h.t.Helper()
	cl, err := client.New(h.net, membership.NewNone(), alias)
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(cl.Close)
	ctx := testCtx(h.t)
	if err := cl.Connect(ctx, h.br.PeerID()); err != nil {
		h.t.Fatal(err)
	}
	if err := cl.Login(ctx, "pw"); err != nil {
		h.t.Fatal(err)
	}
	return cl, filesvc.New(cl)
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestShareSearchDownload(t *testing.T) {
	h := newHarness(t)
	alice, aliceFiles := h.peer("alice")
	_, bobFiles := h.peer("bob")
	ctx := testCtx(t)

	content := bytes.Repeat([]byte("lecture material "), 5000) // ~85 KB, multi-chunk
	if err := aliceFiles.Share(ctx, "lab", "lecture.pdf", content); err != nil {
		t.Fatalf("Share: %v", err)
	}

	results, err := bobFiles.Search(ctx, "lecture", "lab")
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(results) != 1 || results[0].Peer != alice.PeerID() {
		t.Fatalf("results = %+v", results)
	}
	if results[0].File.Size != int64(len(content)) {
		t.Fatalf("size = %d", results[0].File.Size)
	}

	got, err := bobFiles.Download(ctx, alice.PeerID(), "lecture.pdf")
	if err != nil {
		t.Fatalf("Download: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("downloaded content differs")
	}
}

func TestDownloadEmitsEvent(t *testing.T) {
	h := newHarness(t)
	alice, aliceFiles := h.peer("alice")
	bob, bobFiles := h.peer("bob")
	ctx := testCtx(t)
	col := events.NewCollector(bob.Bus())

	if err := aliceFiles.Share(ctx, "lab", "tiny.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := bobFiles.Download(ctx, alice.PeerID(), "tiny.txt"); err != nil {
		t.Fatal(err)
	}
	e, ok := col.WaitFor(events.FileReceived, 5*time.Second)
	if !ok {
		t.Fatal("no FileReceived event")
	}
	if e.Attr("name") != "tiny.txt" || e.Attr("size") != "1" {
		t.Fatalf("event = %+v", e)
	}
}

func TestDownloadMissing(t *testing.T) {
	h := newHarness(t)
	alice, _ := h.peer("alice")
	_, bobFiles := h.peer("bob")
	ctx := testCtx(t)
	if _, err := bobFiles.Download(ctx, alice.PeerID(), "nope.bin"); err == nil {
		t.Fatal("Download of unshared file succeeded")
	}
}

func TestUnshare(t *testing.T) {
	h := newHarness(t)
	alice, aliceFiles := h.peer("alice")
	_, bobFiles := h.peer("bob")
	ctx := testCtx(t)
	if err := aliceFiles.Share(ctx, "lab", "doc.txt", []byte("d")); err != nil {
		t.Fatal(err)
	}
	if err := aliceFiles.Unshare(ctx, "lab", "doc.txt"); err != nil {
		t.Fatal(err)
	}
	if got := aliceFiles.Shared("lab"); len(got) != 0 {
		t.Fatalf("Shared = %v", got)
	}
	if _, err := bobFiles.Download(ctx, alice.PeerID(), "doc.txt"); err == nil {
		t.Fatal("Download of unshared file succeeded")
	}
}

func TestSearchKeywordFilter(t *testing.T) {
	h := newHarness(t)
	_, aliceFiles := h.peer("alice")
	_, bobFiles := h.peer("bob")
	ctx := testCtx(t)
	aliceFiles.Share(ctx, "lab", "physics-notes.txt", []byte("a"))
	aliceFiles.Share(ctx, "lab", "art-history.txt", []byte("b"))

	res, err := bobFiles.Search(ctx, "physics", "lab")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].File.Name != "physics-notes.txt" {
		t.Fatalf("res = %+v", res)
	}
	all, err := bobFiles.Search(ctx, "", "lab")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("all = %+v", all)
	}
	none, err := bobFiles.Search(ctx, "chemistry", "lab")
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("none = %+v", none)
	}
}

func TestShareEmptyNameRejected(t *testing.T) {
	h := newHarness(t)
	_, files := h.peer("alice")
	if err := files.Share(testCtx(t), "lab", "", []byte("x")); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestEmptyFileRoundTrip(t *testing.T) {
	h := newHarness(t)
	alice, aliceFiles := h.peer("alice")
	_, bobFiles := h.peer("bob")
	ctx := testCtx(t)
	if err := aliceFiles.Share(ctx, "lab", "empty.bin", nil); err != nil {
		t.Fatal(err)
	}
	got, err := bobFiles.Download(ctx, alice.PeerID(), "empty.bin")
	if err != nil {
		t.Fatalf("Download empty: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestExactChunkBoundary(t *testing.T) {
	h := newHarness(t)
	alice, aliceFiles := h.peer("alice")
	_, bobFiles := h.peer("bob")
	ctx := testCtx(t)
	content := bytes.Repeat([]byte{0xAB}, filesvc.ChunkSize*2) // exactly 2 chunks
	if err := aliceFiles.Share(ctx, "lab", "boundary.bin", content); err != nil {
		t.Fatal(err)
	}
	got, err := bobFiles.Download(ctx, alice.PeerID(), "boundary.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("boundary file corrupted")
	}
}
