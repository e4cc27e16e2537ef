package xmldoc

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCanonicalSimple(t *testing.T) {
	e := New("Msg", "hello")
	got := string(e.Canonical())
	want := "<Msg>hello</Msg>"
	if got != want {
		t.Fatalf("Canonical() = %q, want %q", got, want)
	}
}

func TestCanonicalAttrsSorted(t *testing.T) {
	e := New("Adv", "")
	e.SetAttr("zeta", "1")
	e.SetAttr("alpha", "2")
	e.SetAttr("mid", "3")
	got := string(e.Canonical())
	want := `<Adv alpha="2" mid="3" zeta="1"></Adv>`
	if got != want {
		t.Fatalf("Canonical() = %q, want %q", got, want)
	}
}

func TestCanonicalEscaping(t *testing.T) {
	e := New("T", `a<b&c>d`)
	e.SetAttr("q", `x"y<z&`)
	got := string(e.Canonical())
	want := `<T q="x&quot;y&lt;z&amp;">a&lt;b&amp;c&gt;d</T>`
	if got != want {
		t.Fatalf("Canonical() = %q, want %q", got, want)
	}
}

func TestParseRoundTrip(t *testing.T) {
	e := tree("PipeAdvertisement",
		New("Id", "urn:jxta:pipe-0123"),
		New("Type", "JxtaUnicast"),
		New("Name", "chat/alice"),
	)
	e.SetAttr("version", "2")
	back, err := ParseBytes(e.Canonical())
	if err != nil {
		t.Fatalf("ParseBytes(Canonical): %v", err)
	}
	if !e.Equal(back) {
		t.Fatalf("round trip mismatch:\n  in:  %s\n  out: %s", e, back)
	}
}

func TestParsePrettyPrintedInput(t *testing.T) {
	in := `
<PeerAdvertisement>
  <Id>urn:jxta:cbid-abc</Id>
  <Name>alice</Name>
  <Desc>  spaces kept inside leaf  </Desc>
</PeerAdvertisement>`
	e, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if e.Name != "PeerAdvertisement" {
		t.Fatalf("root = %q", e.Name)
	}
	if got := e.ChildText("Id"); got != "urn:jxta:cbid-abc" {
		t.Fatalf("Id = %q", got)
	}
	if got := e.ChildText("Desc"); got != "  spaces kept inside leaf  " {
		t.Fatalf("Desc = %q (leaf whitespace must be preserved)", got)
	}
	// Indentation whitespace around children must not leak into Text.
	if e.Text != "" {
		t.Fatalf("container text = %q, want empty", e.Text)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"unbalanced", "<A><B></A>"},
		{"truncated", "<A><B>"},
		{"two-roots", "<A></A><B></B>"},
		{"garbage", "not xml at all <"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", tc.in)
			}
		})
	}
}

func TestChildHelpers(t *testing.T) {
	e := tree("Root",
		New("A", "1"),
		New("B", "2"),
		New("A", "3"),
	)
	if c := e.Child("A"); c == nil || c.Text != "1" {
		t.Fatalf("Child(A) = %v", c)
	}
	if c := e.Child("Z"); c != nil {
		t.Fatalf("Child(Z) = %v, want nil", c)
	}
	if got := e.ChildText("B"); got != "2" {
		t.Fatalf("ChildText(B) = %q", got)
	}
	if got := e.ChildText("Z"); got != "" {
		t.Fatalf("ChildText(Z) = %q", got)
	}
	if got := len(e.ChildrenNamed("A")); got != 2 {
		t.Fatalf("ChildrenNamed(A) len = %d", got)
	}
	if n := e.RemoveChildren("A"); n != 2 {
		t.Fatalf("RemoveChildren(A) = %d", n)
	}
	if got := len(e.Children); got != 1 {
		t.Fatalf("remaining children = %d", got)
	}
}

func TestSetAttrReplaces(t *testing.T) {
	e := New("E", "")
	e.SetAttr("k", "v1")
	e.SetAttr("k", "v2")
	if len(e.Attrs) != 1 {
		t.Fatalf("attrs = %v", e.Attrs)
	}
	if e.Attrs[0] != (Attr{Name: "k", Value: "v2"}) {
		t.Fatalf("attrs = %v", e.Attrs)
	}
}

func TestCloneIndependence(t *testing.T) {
	e := tree("Root", New("C", "x"))
	e.SetAttr("a", "1")
	c := e.Clone()
	c.Children[0].Text = "mutated"
	c.SetAttr("a", "2")
	if e.Children[0].Text != "x" {
		t.Fatal("clone mutation leaked into original child")
	}
	if e.Attrs[0].Value != "1" {
		t.Fatal("clone mutation leaked into original attr")
	}
	if !e.Equal(e.Clone()) {
		t.Fatal("Clone not Equal to original")
	}
}

func TestEqualIgnoresAttrOrder(t *testing.T) {
	a := New("E", "t")
	a.Attrs = []Attr{{"x", "1"}, {"y", "2"}}
	b := New("E", "t")
	b.Attrs = []Attr{{"y", "2"}, {"x", "1"}}
	if !a.Equal(b) {
		t.Fatal("Equal must ignore attribute order")
	}
	b.Attrs[0].Value = "3"
	if a.Equal(b) {
		t.Fatal("Equal must detect attribute value change")
	}
}

func TestEqualDetectsChildOrder(t *testing.T) {
	a := tree("R", New("A", ""), New("B", ""))
	b := tree("R", New("B", ""), New("A", ""))
	if a.Equal(b) {
		t.Fatal("Equal must be sensitive to child order (canonical form is)")
	}
}

// randomTree builds a bounded random element tree for property testing.
func randomTree(r *rand.Rand, depth int) *Element {
	names := []string{"Adv", "Id", "Name", "Key", "Sig", "Data"}
	e := New(names[r.Intn(len(names))], "")
	if r.Intn(2) == 0 {
		e.Text = randText(r)
	}
	for i := 0; i < r.Intn(3); i++ {
		e.SetAttr(names[r.Intn(len(names))]+"attr", randText(r))
	}
	if depth > 0 {
		for i := 0; i < r.Intn(4); i++ {
			e.Add(randomTree(r, depth-1))
		}
	}
	if len(e.Children) > 0 {
		// Mixed content is normalized away by Parse; keep element normal form.
		e.Text = strings.TrimSpace(e.Text)
	}
	return e
}

func randText(r *rand.Rand) string {
	alphabet := []rune("abc <>&\"'xyz0123456789")
	n := r.Intn(12)
	out := make([]rune, n)
	for i := range out {
		out[i] = alphabet[r.Intn(len(alphabet))]
	}
	// Leaf text is trimmed only when siblings exist; keep it trimmed so the
	// property holds regardless of structure.
	return strings.TrimSpace(string(out))
}

func TestPropertyCanonicalRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randomTree(r, 3))
		},
	}
	prop := func(e *Element) bool {
		back, err := ParseBytes(e.Canonical())
		if err != nil {
			t.Logf("round trip error: %v on %s", err, e)
			return false
		}
		return e.Equal(back) && bytes.Equal(e.Canonical(), back.Canonical())
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCanonicalDeterministic(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randomTree(r, 3))
		},
	}
	prop := func(e *Element) bool {
		c := e.Clone()
		// Shuffle attribute order on the clone; canonical bytes must agree.
		for i := range c.Attrs {
			j := len(c.Attrs) - 1 - i
			if j > i {
				c.Attrs[i], c.Attrs[j] = c.Attrs[j], c.Attrs[i]
			}
		}
		return bytes.Equal(e.Canonical(), c.Canonical())
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// tree returns an element with the given name and children.
func tree(name string, children ...*Element) *Element {
	return New(name, "").Add(children...)
}
