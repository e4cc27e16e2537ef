package xmldoc

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// refCanonical is an independent, deliberately naive canonicalizer —
// the oracle the memoizing fast path is checked against. It mirrors the
// specification: open tag, attributes sorted by name, escaped text,
// children in order, close tag.
func refCanonical(e *Element) []byte {
	var b strings.Builder
	refWrite(&b, e)
	return []byte(b.String())
}

func refWrite(b *strings.Builder, e *Element) {
	b.WriteByte('<')
	b.WriteString(e.Name)
	attrs := make([]Attr, len(e.Attrs))
	copy(attrs, e.Attrs)
	sort.Slice(attrs, func(i, j int) bool { return attrs[i].Name < attrs[j].Name })
	for _, a := range attrs {
		b.WriteString(" " + a.Name + `="`)
		b.WriteString(refEscape(a.Value, true))
		b.WriteByte('"')
	}
	b.WriteByte('>')
	b.WriteString(refEscape(e.Text, false))
	for _, c := range e.Children {
		refWrite(b, c)
	}
	b.WriteString("</" + e.Name + ">")
}

func refEscape(s string, attr bool) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r == '&':
			b.WriteString("&amp;")
		case r == '<':
			b.WriteString("&lt;")
		case r == '>' && !attr:
			b.WriteString("&gt;")
		case r == '"' && attr:
			b.WriteString("&quot;")
		case r == '\t' && attr:
			b.WriteString("&#x9;")
		case r == '\n' && attr:
			b.WriteString("&#xA;")
		case r == '\r':
			b.WriteString("&#xD;")
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// checkAgainstRef holds e's canonical bytes, and the digest memoized
// beside them, to the reference serializer's.
func checkAgainstRef(t *testing.T, e *Element, context string) {
	t.Helper()
	want := refCanonical(e)
	if got := e.Canonical(); !bytes.Equal(got, want) {
		t.Fatalf("%s: Canonical() = %q, reference = %q", context, got, want)
	}
	if got := e.CanonicalSum(); got != sha256.Sum256(want) {
		t.Fatalf("%s: CanonicalSum() = %x, digest of the reference %x", context, got, sha256.Sum256(want))
	}
}

func TestCanonicalInvalidUTF8MatchesReference(t *testing.T) {
	// Invalid UTF-8 must canonicalize to U+FFFD exactly as the rune-wise
	// reference does — the canonical form is signing input, so the two
	// serializers may never diverge.
	e := New("T", "ok\xffbad")
	e.SetAttr("a", "x\xfe\xffy")
	e.AddText("C", "\x80")
	checkAgainstRef(t, e, "invalid utf-8")
	if !bytes.Contains(e.Canonical(), []byte("�")) {
		t.Fatalf("invalid byte not replaced: %q", e.Canonical())
	}
}

func TestCanonicalMemoized(t *testing.T) {
	e := tree("Adv", New("Id", "urn:x"), New("Name", "n"))
	first := e.Canonical()
	second := e.Canonical()
	if &first[0] != &second[0] {
		t.Fatal("repeated Canonical() did not return the memoized bytes")
	}
}

// TestMutatorsInvalidate drives every mutator and confirms the memo —
// the canonical bytes and their digest — is dropped on the mutated
// element and all ancestors.
func TestMutatorsInvalidate(t *testing.T) {
	build := func() (*Element, *Element) {
		inner := tree("Inner", New("Leaf", "v"))
		root := tree("Root", New("A", "1"), inner)
		return root, inner
	}
	cases := []struct {
		name   string
		mutate func(root, inner *Element)
	}{
		{"Add", func(_, inner *Element) { inner.Add(New("New", "x")) }},
		{"AddText", func(_, inner *Element) { inner.AddText("New", "x") }},
		{"SetAttr-new", func(_, inner *Element) { inner.SetAttr("k", "v") }},
		{"SetAttr-replace", func(_, inner *Element) {
			inner.SetAttr("k", "v1") // also invalidates, tested via fresh canonical below
			inner.SetAttr("k", "v2")
		}},
		{"RemoveChildren", func(_, inner *Element) { inner.RemoveChildren("Leaf") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root, inner := build()
			before := append([]byte(nil), root.Canonical()...) // populate memos
			sumBefore := root.CanonicalSum()
			_ = inner.CanonicalSum()
			tc.mutate(root, inner)
			checkAgainstRef(t, root, "root after "+tc.name)
			checkAgainstRef(t, inner, "inner after "+tc.name)
			if bytes.Equal(root.Canonical(), before) {
				t.Fatalf("root canonical unchanged after %s — stale memo", tc.name)
			}
			if root.CanonicalSum() == sumBefore {
				t.Fatalf("root digest unchanged after %s — stale memo", tc.name)
			}
		})
	}
}

func TestAddReparentMovesChild(t *testing.T) {
	// Re-parenting via Add must MOVE the element: the old tree loses the
	// child (and its memo is invalidated), and later mutations of the
	// child are reflected only in the new tree. Without move semantics
	// the old tree would serve stale canonical bytes — fatal for signing
	// input.
	x := New("X", "old")
	a := tree("A", x)
	before := append([]byte(nil), a.Canonical()...)
	b := New("B", "")
	b.Add(x)
	x.AddText("Y", "new")
	if bytes.Equal(a.Canonical(), before) {
		t.Fatal("old tree canonical unchanged after child moved away — stale memo")
	}
	if a.Child("X") != nil {
		t.Fatal("old tree still holds the moved child")
	}
	if !bytes.Contains(b.Canonical(), []byte("new")) {
		t.Fatal("new tree missing the child's updated text")
	}
	checkAgainstRef(t, a, "old tree after move")
	checkAgainstRef(t, b, "new tree after move")
}

// TestPropertyCacheInvalidation applies random mutation sequences
// through the mutator API, interleaved with Canonical and CanonicalSum
// calls that populate memos at every level, and checks the canonical
// bytes and their digests against the reference serializer after each
// step. Every other round the tree
// comes from ParseCanonical, so the memos under mutation are the
// parse-time SEEDED ones (input subslices), not computed ones — a
// mutator that failed to invalidate a seeded memo would serve stale
// wire bytes as signing input.
func TestPropertyCacheInvalidation(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	names := []string{"A", "B", "C", "D"}
	for round := 0; round < 50; round++ {
		root := randomTree(r, 3)
		if round%2 == 1 {
			parsed, err := ParseCanonical(append([]byte(nil), root.Canonical()...))
			if err != nil {
				t.Fatalf("round %d: ParseCanonical of canonical bytes: %v", round, err)
			}
			root = parsed
		}
		nodes := collect(root)
		for step := 0; step < 30; step++ {
			// Populate memos, digests among them, on a random subset
			// before mutating.
			_ = root.Canonical()
			_ = nodes[r.Intn(len(nodes))].Canonical()
			_ = nodes[r.Intn(len(nodes))].CanonicalSum()
			if r.Intn(2) == 0 {
				_ = root.CanonicalSum()
			}

			target := nodes[r.Intn(len(nodes))]
			switch r.Intn(4) {
			case 0:
				target.AddText(names[r.Intn(len(names))], randText(r))
			case 1:
				sub := randomTree(r, 1)
				target.Add(sub)
			case 2:
				target.SetAttr(names[r.Intn(len(names))]+"attr", randText(r))
			case 3:
				if len(target.Children) > 0 {
					target.RemoveChildren(target.Children[r.Intn(len(target.Children))].Name)
				}
			}
			nodes = collect(root)
			for _, e := range []*Element{root, target} {
				want := refCanonical(e)
				if got := e.Canonical(); !bytes.Equal(got, want) {
					t.Fatalf("round %d step %d: stale canonical\n got: %q\nwant: %q", round, step, got, want)
				}
				if got := e.CanonicalSum(); got != sha256.Sum256(want) {
					t.Fatalf("round %d step %d: stale digest of %q", round, step, want)
				}
			}
		}
	}
}

func collect(e *Element) []*Element {
	out := []*Element{e}
	for _, c := range e.Children {
		out = append(out, collect(c)...)
	}
	return out
}

func TestCanonicalSkipMatchesCloneStrip(t *testing.T) {
	doc := tree("PipeAdvertisement",
		New("Id", "urn:jxta:pipe-1"),
		New("Name", "msg/alice"),
	)
	doc.Add(tree("Signature", New("SignatureValue", "AAAA")))
	doc.Add(tree("Signature", New("SignatureValue", "BBBB"))) // every Signature child is skipped
	_ = doc.Canonical()                                       // memoized full form must not leak into the skipped form

	want := func() []byte {
		c := doc.Clone()
		c.RemoveChildren("Signature")
		return refCanonical(c)
	}()
	if got := doc.CanonicalSkip("Signature"); !bytes.Equal(got, want) {
		t.Fatalf("CanonicalSkip = %q, want %q", got, want)
	}
	// Skipping a name that does not appear must equal the plain form.
	if got := doc.CanonicalSkip("Absent"); !bytes.Equal(got, doc.Canonical()) {
		t.Fatal("CanonicalSkip(absent) differs from Canonical")
	}
	// And the full form must still include the signatures afterwards.
	if !bytes.Contains(doc.Canonical(), []byte("BBBB")) {
		t.Fatal("Canonical lost the Signature children")
	}
}

func TestAppendCanonical(t *testing.T) {
	e := tree("R", New("C", "x"))
	dst := []byte("prefix:")
	dst = e.appendCanonical(dst, noSkip)
	want := "prefix:" + string(refCanonical(e))
	if string(dst) != want {
		t.Fatalf("appendCanonical = %q, want %q", dst, want)
	}
	// Appending from the memo, as a parent does with a memoized child,
	// must produce identical bytes.
	_ = e.Canonical()
	if got := e.appendCanonical([]byte("prefix:"), noSkip); string(got) != want {
		t.Fatalf("appendCanonical (memoized) = %q, want %q", got, want)
	}
}

func TestCloneCarriesIndependentCache(t *testing.T) {
	e := tree("R", New("C", "x"))
	orig := e.Canonical()
	origSum := e.CanonicalSum()
	c := e.Clone()
	if !bytes.Equal(c.Canonical(), orig) || c.CanonicalSum() != origSum {
		t.Fatal("clone canonical or digest differs")
	}
	// Mutating the clone must not disturb the original's bytes or digest.
	c.RemoveChildren("C")
	c.AddText("C", "y")
	checkAgainstRef(t, c, "clone after mutation")
	if !bytes.Equal(e.Canonical(), orig) || e.CanonicalSum() != origSum {
		t.Fatal("original canonical or digest changed after clone mutation")
	}
	// A digest first taken on a clone serves the original too, and a
	// mutation of the original leaves the clone's alone.
	e2 := tree("R", New("C", "x"))
	_ = e2.Canonical()
	c2 := e2.Clone()
	if c2.CanonicalSum() != origSum {
		t.Fatal("clone digest differs from the original's")
	}
	e2.RemoveChildren("C")
	e2.AddText("C", "z")
	checkAgainstRef(t, e2, "original after mutation")
	if !bytes.Equal(c2.Canonical(), orig) || c2.CanonicalSum() != origSum {
		t.Fatal("clone canonical or digest changed after original mutation")
	}
}

// TestConcurrentCanonical exercises the memo under concurrent readers,
// each digest memo filled by whichever reader reaches it first: a built
// tree, whose bytes are serialized on first use, and a parsed one, whose
// bytes are the input's; run with -race.
func TestConcurrentCanonical(t *testing.T) {
	built := tree("Adv", New("Id", "urn:x"), New("Name", "y"))
	want := refCanonical(built)
	parsed, err := ParseCanonical(append([]byte(nil), want...))
	if err != nil {
		t.Fatal(err)
	}
	wantSum := sha256.Sum256(want)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, doc := range []*Element{built, parsed} {
				for i := 0; i < 200; i++ {
					if got := doc.CanonicalSum(); got != wantSum {
						errs <- fmt.Errorf("concurrent CanonicalSum = %x", got)
						return
					}
					if got := doc.Canonical(); !bytes.Equal(got, want) {
						errs <- fmt.Errorf("concurrent Canonical = %q", got)
						return
					}
					if got := doc.String(); got != string(want) {
						errs <- fmt.Errorf("concurrent String = %q", got)
						return
					}
					_ = doc.CanonicalSkip("Name")
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
