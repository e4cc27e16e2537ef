package xmldoc

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"jxtaoverlay/internal/perfgate"
)

// signedAdvBytes builds the canonical bytes of a signed-advertisement
// shaped document — the document the receive paths parse most often.
func signedAdvBytes() []byte {
	doc := tree("PipeAdvertisement",
		New("Id", "urn:jxta:pipe-0123456789abcdef0123456789abcdef"),
		New("Type", "JxtaUnicast"),
		New("Name", "chat/alice"),
		New("PeerID", "urn:jxta:cbid-0123456789abcdef0123456789abcdef"),
		New("Group", "students"),
	)
	si := tree("SignedInfo",
		New("CanonicalizationMethod", "jxta-overlay-c14n-v1"),
		New("SignatureMethod", "rsa-sha256-pkcs1v15"),
		New("DigestMethod", "sha256"),
		New("DigestValue", "3q2+7wAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA="),
	)
	cr := tree("Credential",
		New("Subject", "urn:jxta:cbid-0123456789abcdef"),
		New("SubjectName", "alice"),
		New("Role", "client"),
		New("Key", "TUlHZk1BMEdDU3FHU0liM0RRRUJBUVVBQTRHTkFEQ0JpUUtCZ1FERGV4YW1wbGU="),
	)
	sig := tree("Signature", si,
		New("SignatureValue", "c2lnbmF0dXJlLXZhbHVlLWJlbmNobWFyay1wYWRkaW5n"),
		tree("KeyInfo", cr),
	)
	doc.Add(sig)
	return append([]byte(nil), doc.Canonical()...)
}

// mustParseCanonical fails the test on rejection.
func mustParseCanonical(t *testing.T, data []byte) *Element {
	t.Helper()
	e, err := ParseCanonical(data)
	if err != nil {
		t.Fatalf("ParseCanonical(%q): %v", data, err)
	}
	return e
}

// checkDifferential asserts the two-parser contract on one input:
// if the fast path accepts, the reference parser must accept and
// produce a structurally identical tree with identical canonical and
// canonical-skip bytes. Returns whether the fast path accepted.
func checkDifferential(t *testing.T, data []byte) bool {
	t.Helper()
	fast, errFast := ParseCanonical(append([]byte(nil), data...))
	ref, errRef := ParseBytes(data)
	if errFast != nil {
		// Narrower grammar: rejecting what the reference accepts is
		// fine; accepting what it rejects is not (checked below).
		if errRef == nil && ref != nil && treeInSubset(ref, 0) && bytes.Equal(data, ref.Canonical()) {
			t.Fatalf("ParseCanonical rejected canonical input %q: %v", data, errFast)
		}
		return false
	}
	if errRef != nil {
		t.Fatalf("ParseCanonical accepted %q but reference rejected: %v", data, errRef)
	}
	if !fast.Equal(ref) {
		t.Fatalf("tree mismatch on %q:\n fast: %s\n  ref: %s", data, fast.String(), ref.String())
	}
	if got, want := fast.Canonical(), ref.Canonical(); !bytes.Equal(got, want) {
		t.Fatalf("canonical mismatch on %q:\n fast: %q\n  ref: %q", data, got, want)
	}
	if got, want := fast.CanonicalSkip("Signature"), ref.CanonicalSkip("Signature"); !bytes.Equal(got, want) {
		t.Fatalf("canonical-skip mismatch on %q:\n fast: %q\n  ref: %q", data, got, want)
	}
	return true
}

// treeInSubset reports whether a reference-parsed tree stays within the
// canonical subset's vocabulary limits (ASCII names, unique attributes,
// bounded depth) — the precondition for "its canonical bytes must be
// accepted by ParseCanonical".
func treeInSubset(e *Element, depth int) bool {
	if depth >= maxCanonicalDepth {
		return false
	}
	if !nameInSubset(e.Name) {
		return false
	}
	for i, a := range e.Attrs {
		if !nameInSubset(a.Name) {
			return false
		}
		for _, b := range e.Attrs[:i] {
			if a.Name == b.Name {
				return false
			}
		}
	}
	for _, c := range e.Children {
		if !treeInSubset(c, depth+1) {
			return false
		}
	}
	return true
}

func nameInSubset(n string) bool {
	if n == "" || !isNameStart(n[0]) || n == "xmlns" {
		return false
	}
	for i := 1; i < len(n); i++ {
		if !isNameByte(n[i]) {
			return false
		}
	}
	return true
}

func TestParseCanonicalSignedAdvertisement(t *testing.T) {
	raw := signedAdvBytes()
	doc := mustParseCanonical(t, raw)
	ref, err := ParseBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Equal(ref) {
		t.Fatalf("tree mismatch:\n fast: %s\n  ref: %s", doc.String(), ref.String())
	}
	if doc.ChildText("Name") != "chat/alice" || doc.Child("Signature") == nil {
		t.Fatalf("parsed tree lost content: %s", doc.String())
	}
}

func TestParseCanonicalSeedsMemo(t *testing.T) {
	raw := signedAdvBytes()
	doc := mustParseCanonical(t, raw)
	got := doc.Canonical()
	if !bytes.Equal(got, raw) {
		t.Fatalf("Canonical() after canonical parse = %q, want input %q", got, raw)
	}
	// The memo must be the input subslice, not a re-serialization.
	if &got[0] != &raw[0] {
		t.Fatal("Canonical() re-serialized instead of returning the seeded input bytes")
	}
	// Children are seeded independently (the CanonicalSkip fast path):
	// the child's canonical bytes must ALIAS the input segment, not just
	// equal it — pointer identity with the matching subslice proves the
	// memo was seeded rather than re-serialized.
	sig := doc.Child("Signature")
	sc := sig.Canonical()
	idx := bytes.Index(raw, sc)
	if idx < 0 || &sc[0] != &raw[idx] {
		t.Fatal("child memo not seeded from the input subslice")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = sig.Canonical() }); allocs != 0 {
		t.Fatalf("child memo read allocates %v times", allocs)
	}
	// Seeded memos make the memo read allocation-free.
	if allocs := testing.AllocsPerRun(100, func() { _ = doc.Canonical() }); allocs != 0 {
		t.Fatalf("Canonical() on seeded tree allocates %v times", allocs)
	}
}

func TestParseCanonicalMemoSeedZeroAllocs(t *testing.T) {
	// The acceptance bar: parse of already-canonical input followed by
	// Canonical() performs zero allocations for the canonical read and
	// returns bytes equal to the input.
	raw := signedAdvBytes()
	doc := mustParseCanonical(t, raw)
	var out []byte
	if allocs := testing.AllocsPerRun(100, func() { out = doc.Canonical() }); allocs != 0 {
		t.Fatalf("memo read allocates %v times, want 0", allocs)
	}
	if !bytes.Equal(out, raw) {
		t.Fatal("memo read returned different bytes than the canonical input")
	}
}

func TestParseCanonicalMutationInvalidatesSeed(t *testing.T) {
	raw := signedAdvBytes()
	doc := mustParseCanonical(t, raw)
	_ = doc.Canonical() // memo seeded from input
	doc.RemoveChildren("Name")
	doc.AddText("Name", "mallory")
	got := doc.Canonical()
	if bytes.Equal(got, raw) {
		t.Fatal("mutation did not invalidate the seeded memo — stale signing input")
	}
	checkAgainstRef(t, doc, "after mutating seeded tree")
	if !bytes.Contains(got, []byte("mallory")) {
		t.Fatal("mutated text missing from canonical bytes")
	}
	// Mutating a deep child invalidates every seeded ancestor too.
	doc2 := mustParseCanonical(t, signedAdvBytes())
	_ = doc2.Canonical()
	si := doc2.Child("Signature").Child("SignedInfo")
	si.RemoveChildren("DigestValue")
	si.AddText("DigestValue", "forged")
	checkAgainstRef(t, doc2, "after deep mutation of seeded tree")
	if !bytes.Contains(doc2.Canonical(), []byte("forged")) {
		t.Fatal("deep mutation not reflected in canonical bytes")
	}
}

func TestParseCanonicalNonCanonicalInputs(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"pretty-printed", "<A>\n  <B>x</B>\n  <C>y</C>\n</A>"},
		{"self-closing", "<A><B/></A>"},
		{"unsorted-attrs", `<A z="1" a="2"></A>`},
		{"tag-spacing", "<A  k = \"v\" ></A >"},
		{"noncanon-escape-text", "<A>&quot;q&quot;</A>"},
		{"noncanon-escape-attr", `<A k="&gt;"></A>`},
		{"trimmed-container-text", "<A>  x  <B></B></A>"},
		{"text-after-child", "<A><B></B>tail</A>"},
		{"ws-around-root", "  \n<A>x</A>\n  "},
		{"interleaved-text", "<A>x<B></B>y</A>"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := []byte(tc.in)
			if !checkDifferential(t, data) {
				t.Fatalf("ParseCanonical rejected acceptable non-canonical input %q", tc.in)
			}
			// Non-canonical input must NOT seed a verbatim root memo:
			// Canonical() must return proper canonical bytes, not the
			// input.
			doc := mustParseCanonical(t, data)
			checkAgainstRef(t, doc, tc.name)
		})
	}
}

func TestParseCanonicalRejects(t *testing.T) {
	deep := strings.Repeat("<A>", 100) + strings.Repeat("</A>", 100)
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"whitespace-only", "  \n\t"},
		{"xml-decl", `<?xml version="1.0"?><A></A>`},
		{"doctype", `<!DOCTYPE lolz [<!ENTITY lol "lol">]><A>&lol;</A>`},
		{"comment", "<A><!-- hidden --></A>"},
		{"cdata", "<A><![CDATA[x]]></A>"},
		{"pi", "<A><?php evil ?></A>"},
		{"unknown-entity", "<A>&nbsp;</A>"},
		{"apos-entity", "<A>&apos;</A>"},
		{"decimal-charref", "<A>&#65;</A>"},
		{"hex-charref-other", "<A>&#x41;</A>"},
		{"lone-amp", "<A>a & b</A>"},
		{"unterminated-entity", "<A>&amp</A>"},
		{"raw-gt-in-text", "<A>a>b</A>"},
		{"cdata-end-in-text", "<A>]]></A>"},
		{"raw-cr-text", "<A>a\rb</A>"},
		{"raw-cr-attr", "<A k=\"a\rb\"></A>"},
		{"control-byte", "<A>\x01</A>"},
		{"nul-byte", "<A>\x00</A>"},
		{"bad-utf8-text", "<A>a\xffb</A>"},
		{"bad-utf8-attr", "<A k=\"\xfe\"></A>"},
		{"lit-u+ffff", "<A>\uffff</A>"},
		{"namespace-name", "<n:A></n:A>"},
		{"xmlns-attr", `<A xmlns="urn:x"></A>`},
		{"dup-attr", `<A k="1" k="2"></A>`},
		{"single-quoted-attr", "<A k='v'></A>"},
		{"unbalanced", "<A><B></A>"},
		{"truncated", "<A><B>"},
		{"truncated-tag", "<A"},
		{"two-roots", "<A></A><B></B>"},
		{"junk-before-root", "junk<A></A>"},
		{"junk-after-root", "<A></A>junk"},
		{"bom", "\xef\xbb\xbf<A></A>"},
		{"garbage", "not xml at all <"},
		{"too-deep", deep},
		{"raw-lt-in-attr", `<A k="<"></A>`},
		{"digit-name", "<1A></1A>"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseCanonical([]byte(tc.in)); err == nil {
				t.Fatalf("ParseCanonical(%q) accepted, want rejection", tc.in)
			}
		})
	}
}

// TestParseCanonicalPropertyRoundTrip: any random tree's canonical
// bytes parse back to an equal tree with every memo seeded.
func TestParseCanonicalPropertyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		tree := randomTree(r, 3)
		raw := append([]byte(nil), tree.Canonical()...)
		doc, err := ParseCanonical(raw)
		if err != nil {
			t.Fatalf("canonical bytes rejected: %v\ninput: %q", err, raw)
		}
		if !doc.Equal(tree) {
			t.Fatalf("round-trip mismatch:\n  in: %q\n out: %q", tree.Canonical(), doc.Canonical())
		}
		got := doc.Canonical()
		if !bytes.Equal(got, raw) || &got[0] != &raw[0] {
			t.Fatalf("root memo not seeded from canonical input %q", raw)
		}
	}
}

// TestParseCanonicalPropertyDifferential drives random mutations of
// canonical documents through both parsers and checks the subset
// contract each time.
func TestParseCanonicalPropertyDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	accepted := 0
	for i := 0; i < 500; i++ {
		tree := randomTree(r, 3)
		raw := append([]byte(nil), tree.Canonical()...)
		// Corrupt 0–3 positions with random bytes (sometimes printable,
		// sometimes hostile), or splice in random snippets.
		for m := 0; m < r.Intn(4); m++ {
			if len(raw) == 0 {
				break
			}
			switch r.Intn(3) {
			case 0:
				raw[r.Intn(len(raw))] = byte(r.Intn(256))
			case 1:
				raw[r.Intn(len(raw))] = "<>&\"= /'"[r.Intn(8)]
			case 2:
				at := r.Intn(len(raw))
				snip := []string{" ", "<!--x-->", "&amp;", "<B></B>", "</", "\r"}[r.Intn(6)]
				raw = append(raw[:at], append([]byte(snip), raw[at:]...)...)
			}
		}
		if checkDifferential(t, raw) {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("differential property never exercised an accepted input")
	}
}

// TestParseCanonicalAllocBudget pins the ≥3× allocation win over the
// encoding/xml path on the hot document shape. Allocation counts are
// deterministic, so this is a stable functional assertion, unlike a
// time-based ratio.
func TestParseCanonicalAllocBudget(t *testing.T) {
	raw := signedAdvBytes()
	fast := testing.AllocsPerRun(50, func() {
		if _, err := ParseCanonical(raw); err != nil {
			t.Fatal(err)
		}
	})
	ref := testing.AllocsPerRun(50, func() {
		if _, err := ParseBytes(raw); err != nil {
			t.Fatal(err)
		}
	})
	if fast*3 > ref {
		t.Fatalf("ParseCanonical allocs = %.0f, reference = %.0f; want ≥3× fewer", fast, ref)
	}
}

// BenchmarkParseCold is the receive-side parse every inbound wire
// funnels through, on a signed advertisement: zero-copy lexing into one
// slab, memos seeded from the input.
func BenchmarkParseCold(b *testing.B) {
	raw := signedAdvBytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		if _, err := ParseCanonical(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGateParseCold(t *testing.T) { perfgate.Run(t, BenchmarkParseCold, 10, perfgate.NoLimit) }

// FuzzParseCanonical is the differential fuzzer: on every input, if the
// fast path accepts, the reference parser must accept with an identical
// tree (same structure, same canonical bytes, same detached-signature
// serialization); if the fast path rejects but the input was bytes the
// canonical serializer itself produced, that is a false rejection. It
// must never panic on any input.
func FuzzParseCanonical(f *testing.F) {
	f.Add(signedAdvBytes())
	f.Add([]byte("<SecureMessage><Sender>urn:jxta:cbid-1</Sender><Group>g</Group><BodyDigest>AA==</BodyDigest><Time>2026-01-01T00:00:00Z</Time><Signature>c2ln</Signature></SecureMessage>"))
	f.Add([]byte(`<A k="v" z="&quot;x&#x9;"></A>`))
	f.Add([]byte("<A>&amp;&lt;&gt;&#xD;</A>"))
	f.Add([]byte("<A>\n  <B>x</B>\n</A>"))
	f.Add([]byte("<A><B/></A>"))
	f.Add([]byte(`<?xml version="1.0"?><A></A>`))
	f.Add([]byte(`<!DOCTYPE lolz [<!ENTITY a "bb">]><A>&a;</A>`))
	f.Add([]byte("<A><!--c--></A>"))
	f.Add([]byte("<A>]]></A>"))
	f.Add([]byte("<A>\xff</A>"))
	f.Add([]byte(strings.Repeat("<A>", 80) + strings.Repeat("</A>", 80)))
	f.Add([]byte("<Credential><Subject>s</Subject><Key>a2V5</Key></Credential>"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fast, errFast := ParseCanonical(append([]byte(nil), data...))
		ref, errRef := ParseBytes(data)
		if errFast != nil {
			if errRef == nil && ref != nil && treeInSubset(ref, 0) && bytes.Equal(data, ref.Canonical()) {
				t.Fatalf("canonical input rejected: %v\ninput: %q", errFast, data)
			}
			return
		}
		if errRef != nil {
			t.Fatalf("fast path accepted input the reference rejects (%v): %q", errRef, data)
		}
		if !fast.Equal(ref) {
			t.Fatalf("tree mismatch on %q", data)
		}
		if !bytes.Equal(fast.Canonical(), ref.Canonical()) {
			t.Fatalf("canonical mismatch on %q", data)
		}
		if !bytes.Equal(fast.CanonicalSkip("Signature"), ref.CanonicalSkip("Signature")) {
			t.Fatalf("canonical-skip mismatch on %q", data)
		}
	})
}
