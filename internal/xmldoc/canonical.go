package xmldoc

import (
	"crypto/sha256"
	"sort"
	"sync"
	"sync/atomic"
	"unicode/utf8"
	"unsafe"
)

// Canonicalization fast path.
//
// Canonical output is requested over and over on the hot paths — every
// signature, digest, wire encoding and cache lookup serializes the same
// trees — so the serializer is built around three ideas:
//
//  1. append-based writing into a caller- or pool-provided []byte, so a
//     serialization costs at most one right-sized allocation;
//  2. a per-element memo of the element's own canonical bytes, and of
//     their SHA-256 once it is asked for, dropped by every mutator (see
//     Element.invalidate), so repeated Canonical and CanonicalSum calls
//     on an unchanged tree are a pointer load;
//  3. CanonicalSkip, which serializes a document *minus* selected direct
//     children (the XMLdsig "detach the Signature" step) without the
//     Clone+RemoveChildren deep copy the naive formulation needs.
//
// The memo slice is shared: callers of Canonical and String MUST treat
// the returned bytes as read-only.

// canonPool recycles scratch buffers for cache-miss serializations.
var canonPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// memo is an element's canonical bytes and, once CanonicalSum has been
// asked for, their SHA-256. One memo describes one serialization: the
// mutators drop it whole, so the digest can never outlive its bytes. The
// bytes are held as a string, read-only as Canonical's callers already
// treat them, so that the memo with its digest pointer takes the 24 bytes
// a []byte header alone took: a parse seeds one on nearly every element.
type memo struct {
	s   string
	sum atomic.Pointer[[sha256.Size]byte]
}

func (m *memo) bytes() []byte { return unsafe.Slice(unsafe.StringData(m.s), len(m.s)) }

// Canonical returns the deterministic canonical serialization of the
// tree. Two structurally equal trees always canonicalize to identical
// bytes, which makes the output suitable as signing input.
//
// The result is memoized on the element until a mutator invalidates it;
// callers must not modify the returned slice.
func (e *Element) Canonical() []byte { return e.memoized().bytes() }

// CanonicalSum returns the SHA-256 of the tree's canonical bytes. It is
// memoized beside them: the first call on an unchanged tree hashes, and
// every later one, from any goroutine, is a pointer load.
func (e *Element) CanonicalSum() [sha256.Size]byte {
	m := e.memoized()
	if s := m.sum.Load(); s != nil {
		return *s
	}
	s := sha256.Sum256(m.bytes())
	m.sum.Store(&s)
	return s
}

// memoized returns e's memo, serializing the tree on a miss.
func (e *Element) memoized() *memo {
	if m := e.canon.Load(); m != nil {
		return m
	}
	bp := canonPool.Get().(*[]byte)
	buf := e.appendCanonical((*bp)[:0], noSkip)
	m := &memo{s: string(buf)}
	*bp = buf[:0]
	canonPool.Put(bp)
	e.canon.Store(m)
	return m
}

// AppendCanonical appends the canonical serialization of the tree to dst
// and returns the extended slice, reusing the memoized bytes when they
// are fresh. It never allocates beyond growing dst.
func (e *Element) AppendCanonical(dst []byte) []byte {
	return e.appendCanonical(dst, noSkip)
}

// CanonicalSkip returns the canonical serialization of the tree with
// every *direct* child named skip omitted — the signing input of an
// enveloped-signature document without detaching its Signature children
// first. Unlike Canonical the result is a fresh slice owned by the
// caller; it is not memoized (the skipped form is derived, not the
// element's identity).
func (e *Element) CanonicalSkip(skip string) []byte {
	bp := canonPool.Get().(*[]byte)
	buf := e.appendCanonical((*bp)[:0], skip)
	out := make([]byte, len(buf))
	copy(out, buf)
	*bp = buf[:0]
	canonPool.Put(bp)
	return out
}

// noSkip marks a plain serialization; element names are never empty.
const noSkip = ""

func (e *Element) appendCanonical(dst []byte, skip string) []byte {
	if skip == noSkip {
		if m := e.canon.Load(); m != nil {
			return append(dst, m.s...)
		}
	}
	dst = append(dst, '<')
	dst = append(dst, e.Name...)
	switch len(e.Attrs) {
	case 0:
	case 1:
		dst = appendAttr(dst, e.Attrs[0])
	default:
		sorted := make([]Attr, len(e.Attrs))
		copy(sorted, e.Attrs)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
		for _, a := range sorted {
			dst = appendAttr(dst, a)
		}
	}
	dst = append(dst, '>')
	dst = appendEscapedText(dst, e.Text)
	for _, c := range e.Children {
		if skip != noSkip && c.Name == skip {
			continue
		}
		dst = c.appendCanonical(dst, noSkip)
	}
	dst = append(dst, '<', '/')
	dst = append(dst, e.Name...)
	dst = append(dst, '>')
	return dst
}

func appendAttr(dst []byte, a Attr) []byte {
	dst = append(dst, ' ')
	dst = append(dst, a.Name...)
	dst = append(dst, '=', '"')
	dst = appendEscapedAttr(dst, a.Value)
	return append(dst, '"')
}

// The escape loops run byte-wise over the ASCII range (every escaped
// character is ASCII) and fall back to rune decoding above 0x7F, so
// invalid UTF-8 canonicalizes to U+FFFD exactly as the previous
// rune-wise serializer (strings.Builder.WriteRune) produced — the
// canonical bytes, i.e. the signing input, are unchanged.

func appendEscapedText(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '&':
			dst = append(dst, "&amp;"...)
		case c == '<':
			dst = append(dst, "&lt;"...)
		case c == '>':
			dst = append(dst, "&gt;"...)
		case c == '\r':
			dst = append(dst, "&#xD;"...)
		case c < utf8.RuneSelf:
			dst = append(dst, c)
		default:
			var size int
			dst, size = appendRune(dst, s[i:])
			i += size
			continue
		}
		i++
	}
	return dst
}

func appendEscapedAttr(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '&':
			dst = append(dst, "&amp;"...)
		case c == '<':
			dst = append(dst, "&lt;"...)
		case c == '"':
			dst = append(dst, "&quot;"...)
		case c == '\t':
			dst = append(dst, "&#x9;"...)
		case c == '\n':
			dst = append(dst, "&#xA;"...)
		case c == '\r':
			dst = append(dst, "&#xD;"...)
		case c < utf8.RuneSelf:
			dst = append(dst, c)
		default:
			var size int
			dst, size = appendRune(dst, s[i:])
			i += size
			continue
		}
		i++
	}
	return dst
}

// appendRune appends the leading rune of s, replacing invalid UTF-8
// with U+FFFD, and reports how many input bytes were consumed.
func appendRune(dst []byte, s string) ([]byte, int) {
	r, size := utf8.DecodeRuneInString(s)
	if r == utf8.RuneError && size == 1 {
		return utf8.AppendRune(dst, utf8.RuneError), 1
	}
	return append(dst, s[:size]...), size
}
