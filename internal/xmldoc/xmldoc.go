// Package xmldoc implements a small XML document model with a
// deterministic canonical serialization.
//
// JXTA represents every piece of metadata — advertisements, credentials,
// messages — as structured XML documents. The security extension signs
// those documents, which requires byte-for-byte reproducible output: the
// canonical form produced here sorts attributes by name, escapes text
// minimally and deterministically, and never emits insignificant
// whitespace. It is a self-contained subset in the spirit of W3C
// Exclusive XML Canonicalization, sufficient for the document shapes
// JXTA-Overlay exchanges (no namespaces, comments, or processing
// instructions survive canonicalization).
package xmldoc

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
)

// Attr is a single name="value" attribute on an element.
type Attr struct {
	Name  string
	Value string
}

// Element is a node in an XML document tree. Text and child elements are
// kept separately: JXTA documents are "element normal form" — an element
// carries either a text payload or child elements, not interleaved mixed
// content. Parsing concatenates any character data into Text.
//
// Canonical serializations are memoized per element (see canonical.go).
// The fields stay exported for reading and for building fresh trees, but
// once an element has been canonicalized it must only be changed through
// the mutator methods (Add, AddText, SetAttr, RemoveChildren):
// they drop the memoized bytes on the element and every ancestor. A
// direct field write after canonicalization leaves a stale memo behind.
type Element struct {
	Name     string
	Attrs    []Attr
	Text     string
	Children []*Element

	// parent backlinks let a mutation invalidate the memoized canonical
	// bytes of every enclosing element. An element has at most one parent;
	// attaching it to a second tree re-points the backlink.
	parent *Element
	// canon memoizes the element's canonical serialization and its
	// digest. Atomic so concurrent readers (Canonical, CanonicalSum and
	// String on shared cached documents) are race-free; mutating a tree
	// concurrently with reads remains the caller's responsibility,
	// exactly as before memoization.
	canon atomic.Pointer[memo]
}

// invalidate drops the memoized canonical bytes, and their digest, on e
// and every ancestor.
func (e *Element) invalidate() {
	for p := e; p != nil; p = p.parent {
		p.canon.Store(nil)
	}
}

// New returns an element with the given name and text payload.
func New(name, text string) *Element {
	return &Element{Name: name, Text: text}
}

// Add appends children and returns the receiver for chaining. A child
// that already belongs to another tree is MOVED: it is detached from
// its old parent (whose memoized canonical bytes are invalidated), so
// an element always has exactly one parent and every future mutation of
// the child invalidates the one tree that actually contains it. Without
// the detach, the old tree would keep serving stale canonical bytes —
// fatal for signing input.
func (e *Element) Add(children ...*Element) *Element {
	for _, c := range children {
		if c.parent != nil && c.parent != e {
			c.parent.detach(c)
		}
		c.parent = e
	}
	e.Children = append(e.Children, children...)
	e.invalidate()
	return e
}

// detach removes c from e's children and invalidates e's chain.
func (e *Element) detach(c *Element) {
	for i, ch := range e.Children {
		if ch == c {
			e.Children = append(e.Children[:i], e.Children[i+1:]...)
			break
		}
	}
	e.invalidate()
}

// AddText appends a child element holding only text and returns the
// receiver for chaining.
func (e *Element) AddText(name, text string) *Element {
	return e.Add(New(name, text))
}

// SetAttr sets (or replaces) an attribute value.
func (e *Element) SetAttr(name, value string) *Element {
	defer e.invalidate()
	for i := range e.Attrs {
		if e.Attrs[i].Name == name {
			e.Attrs[i].Value = value
			return e
		}
	}
	e.Attrs = append(e.Attrs, Attr{Name: name, Value: value})
	return e
}

// Child returns the first direct child with the given name, or nil.
func (e *Element) Child(name string) *Element {
	for _, c := range e.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ChildText returns the text of the first direct child with the given
// name, or the empty string when no such child exists.
func (e *Element) ChildText(name string) string {
	if c := e.Child(name); c != nil {
		return c.Text
	}
	return ""
}

// ChildrenNamed returns all direct children with the given name.
func (e *Element) ChildrenNamed(name string) []*Element {
	var out []*Element
	for _, c := range e.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// RemoveChildren removes every direct child with the given name and
// reports how many were removed.
func (e *Element) RemoveChildren(name string) int {
	kept := e.Children[:0]
	removed := 0
	for _, c := range e.Children {
		if c.Name == name {
			c.parent = nil
			removed++
			continue
		}
		kept = append(kept, c)
	}
	e.Children = kept
	e.invalidate()
	return removed
}

// Clone returns a deep copy of the element tree. The copy carries over
// any memoized canonical bytes and digest (they describe an identical
// tree) but is otherwise independent: mutating either tree never
// affects the other.
func (e *Element) Clone() *Element {
	if e == nil {
		return nil
	}
	out := &Element{Name: e.Name, Text: e.Text}
	if len(e.Attrs) > 0 {
		out.Attrs = make([]Attr, len(e.Attrs))
		copy(out.Attrs, e.Attrs)
	}
	for _, c := range e.Children {
		cc := c.Clone()
		cc.parent = out
		out.Children = append(out.Children, cc)
	}
	out.canon.Store(e.canon.Load())
	return out
}

// Equal reports whether two trees are structurally identical (same names,
// attributes, text, and child order).
func (e *Element) Equal(o *Element) bool {
	if e == nil || o == nil {
		return e == o
	}
	if e.Name != o.Name || e.Text != o.Text || len(e.Attrs) != len(o.Attrs) || len(e.Children) != len(o.Children) {
		return false
	}
	ea, oa := sortedAttrs(e.Attrs), sortedAttrs(o.Attrs)
	for i := range ea {
		if ea[i] != oa[i] {
			return false
		}
	}
	for i := range e.Children {
		if !e.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}

func sortedAttrs(in []Attr) []Attr {
	out := make([]Attr, len(in))
	copy(out, in)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// String renders the canonical form; handy for debugging and logs. It
// shares Canonical's memo, so repeated renderings cost one string
// conversion rather than a full serialization.
func (e *Element) String() string { return string(e.Canonical()) }

// ErrEmptyDocument is returned by Parse when the input holds no element.
var ErrEmptyDocument = errors.New("xmldoc: empty document")

// Parse reads a single XML document from r into an Element tree.
// Namespaces are flattened (local names only), comments, directives and
// processing instructions are dropped, and character data inside an
// element is concatenated and trimmed of leading/trailing whitespace
// when the element also has child elements (pretty-printed input).
func Parse(r io.Reader) (*Element, error) {
	dec := xml.NewDecoder(r)
	var stack []*Element
	var root *Element
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldoc: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			el := &Element{Name: t.Name.Local}
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				el.Attrs = append(el.Attrs, Attr{Name: a.Name.Local, Value: a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, errors.New("xmldoc: multiple root elements")
				}
				root = el
			} else {
				parent := stack[len(stack)-1]
				el.parent = parent
				parent.Children = append(parent.Children, el)
			}
			stack = append(stack, el)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, errors.New("xmldoc: unbalanced end element")
			}
			top := stack[len(stack)-1]
			if len(top.Children) > 0 {
				top.Text = strings.TrimSpace(top.Text)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				stack[len(stack)-1].Text += string(t)
			}
		}
	}
	if root == nil {
		return nil, ErrEmptyDocument
	}
	if len(stack) != 0 {
		return nil, errors.New("xmldoc: unexpected EOF inside element")
	}
	return root, nil
}

// ParseBytes is Parse over a byte slice. It reads data in place (no
// whole-input copy); like Parse it rides encoding/xml and accepts
// arbitrary well-formed XML. Wire receive paths should prefer
// ParseCanonical, which parses the canonical subset those surfaces
// actually exchange several times faster.
func ParseBytes(data []byte) (*Element, error) {
	return Parse(bytes.NewReader(data))
}
