package xmldoc

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"unicode/utf8"
	"unsafe"
)

// Canonical-subset fast-path parser.
//
// Every inbound wire in this system — advertisements at the broker,
// envelope and round headers at clients, credentials everywhere —
// carries XML produced by Canonical(). ParseCanonical parses exactly
// that subset (plus harmless whitespace slack) with a hand-rolled byte
// lexer instead of encoding/xml's token stream, built around four
// ideas:
//
//  1. zero-copy extraction: names, attribute values and text are
//     subslices of the input (via one unsafe string view), so a parse
//     allocates a handful of slabs instead of one token per node;
//  2. slab allocation: all Elements of a document come from chunked
//     slabs, all child-pointer slices from one arena — parsing a
//     15-element advertisement costs ~4 allocations;
//  3. name interning: the fixed tag vocabulary (SecureMessage,
//     SecureRound, Signature, credential fields, …) resolves to shared
//     string constants, so names neither allocate nor pin the input;
//  4. canonical-memo seeding: while lexing, the parser proves per
//     element whether its input segment is byte-identical to what
//     Canonical() would re-emit (attributes sorted with exact spacing,
//     only canonical escapes, text before children, no trim effect).
//     Verbatim elements get their canonical memo seeded from the input
//     subslice, so the Canonical()/CanonicalSkip() calls inside
//     signature verification are pointer reads, not re-serializations.
//
// Hardening: the grammar is a strict SUBSET of what the encoding/xml
// reference parser accepts. There are no DTDs, entities beyond the
// canonical escape set, processing instructions, comments, CDATA,
// namespaces, or unbounded nesting — a document using any of them is
// rejected in O(position) work, so entity-expansion and deep-recursion
// attacks have no surface. The differential fuzz test
// (FuzzParseCanonical) pins both directions: accepted inputs parse to
// trees byte-identical to the reference parser's, and any input that is
// already in canonical form is always accepted.
//
// ALIASING CONTRACT: the returned tree (its strings and any seeded
// canonical memos) references data directly. The caller must not modify
// data for the lifetime of the tree. Receive paths parse buffers they
// own and never touch again, which is exactly this contract.

// ErrCanonicalSyntax is the base error for ParseCanonical rejections.
// It wraps every syntax failure, so callers can distinguish "outside
// the canonical subset" from other error classes with errors.Is.
var ErrCanonicalSyntax = errors.New("xmldoc: input outside the canonical XML subset")

// maxCanonicalDepth bounds element nesting so a hostile document cannot
// drive the recursive-descent parser arbitrarily deep. Real documents
// in this system nest 4 levels (advertisement → Signature → KeyInfo →
// Credential fields).
const maxCanonicalDepth = 64

func canonErr(pos int, what string) error {
	return fmt.Errorf("%w (%s at byte %d)", ErrCanonicalSyntax, what, pos)
}

// Process-wide ingest counters. ParseCanonical guards every wire
// receive surface in the system, so its failure count IS the "malformed
// input reaching us" signal operators watch; two uncontended atomic
// adds against a multi-microsecond parse are measurement noise, and
// they do not allocate (TestGateParseCold counts).
var (
	parseCanonCalls    atomic.Uint64
	parseCanonFailures atomic.Uint64
)

// ParseCanonicalStats reports how many ParseCanonical calls have run
// process-wide and how many of them rejected their input.
func ParseCanonicalStats() (calls, failures uint64) {
	return parseCanonCalls.Load(), parseCanonFailures.Load()
}

// internedNames maps the fixed element/attribute vocabulary to shared
// constants. Map lookups keyed by a substring do not allocate, and a
// hit means the Element name neither allocates nor pins the input
// buffer. Misses fall back to a zero-copy subslice of the input.
var internedNames = buildInterned(
	// envelope / round headers
	"SecureMessage", "SecureRound", "Sender", "Group", "BodyDigest",
	"Time", "Nonce", "SliceRoot", "Signature",
	// XMLdsig
	"SignedInfo", "CanonicalizationMethod", "SignatureMethod",
	"DigestMethod", "DigestValue", "SignatureValue", "KeyInfo",
	// credentials
	"Credential", "Subject", "SubjectName", "Role", "Issuer", "Key",
	"Agree", "NotBefore", "NotAfter", "CredentialChain",
	// advertisements
	"PipeAdvertisement", "PeerAdvertisement", "PresenceAdvertisement",
	"FileListAdvertisement", "GroupAdvertisement", "StatsAdvertisement",
	"Id", "Type", "Name", "PeerID", "Desc", "Status", "File", "Size",
	"Digest", "Seen", "Creator", "GroupID", "Services", "Service",
	"UptimeSec", "MsgsSent", "MsgsRecv", "BytesSent", "BytesRecv",
	// login / renewal / user database
	"SecureLoginRequest", "SecureRenewRequest", "User", "Pass", "Sid",
	"Timestamp", "DBRequest", "DBResponse", "Op", "Broker", "Groups",
	"OK", "Err",
)

func buildInterned(names ...string) map[string]string {
	m := make(map[string]string, len(names))
	for _, n := range names {
		m[n] = n
	}
	return m
}

// entity is one escape sequence the canonical subset accepts. The
// textCanon/attrCanon flags record whether Canonical() itself emits
// this exact byte form in that context — the condition for the
// enclosing element to keep its verbatim (memo-seedable) status.
// Anything outside this table — &apos;, general character references,
// and therefore every DTD-defined entity — is rejected.
type entity struct {
	raw       string
	ch        byte
	textCanon bool
	attrCanon bool
}

var entities = [...]entity{
	{"&amp;", '&', true, true},
	{"&lt;", '<', true, true},
	{"&gt;", '>', true, false},
	{"&quot;", '"', false, true},
	{"&#x9;", '\t', false, true},
	{"&#xA;", '\n', false, true},
	{"&#xD;", '\r', true, true},
}

type canonParser struct {
	data []byte
	s    string // zero-copy view of data
	pos  int

	depth int

	// Chunked slabs. Addresses handed out stay valid because chunks are
	// only ever resliced forward, never reallocated in place. A tree that
	// is kept (discovery keeps the one it is handed) keeps its slabs whole,
	// so each kind's first slab is sized from the document's element
	// count, not to a fixed minimum: a document has one child pointer and
	// at most one memo per element.
	elemChunk    []Element
	elemEstimate int // size of the next element chunk to allocate
	kidChunk     []*Element
	kidEstimate  int // likewise, child pointers
	seedChunk    [][]byte
	seedEstimate int // likewise, seeded memos

	// Scratch stacks shared across the recursion; each frame works on
	// its tail past a saved mark.
	childStack []*Element
	textStack  []string
	attrBuf    []Attr
}

// ParseCanonical parses a single XML document in the canonical subset
// (see the package comment above). On success the tree is equivalent to
// what Parse would produce for the same bytes; when the input is
// already in canonical form, each element's canonical memo is seeded
// from the matching input subslice, making a later Canonical() call a
// pointer read that returns bytes aliasing data.
//
// The returned tree references data; the caller must not modify data
// afterwards.
func ParseCanonical(data []byte) (*Element, error) {
	root, err := parseCanonical(data)
	parseCanonCalls.Add(1)
	if err != nil {
		parseCanonFailures.Add(1)
	}
	return root, err
}

func parseCanonical(data []byte) (*Element, error) {
	if len(data) == 0 {
		return nil, ErrEmptyDocument
	}
	p := &canonParser{
		data: data,
		s:    unsafe.String(unsafe.SliceData(data), len(data)),
	}
	// One pass over the input sizes the first slab of each kind; done
	// once here (not per chunk refill) so parse work stays linear even on
	// element-dense input.
	elems := bytes.Count(data, []byte{'<'})/2 + 1
	p.elemEstimate = min(max(elems, 8), 256)
	p.kidEstimate = min(elems, 256)
	p.seedEstimate = min(elems, 256)
	p.skipOuterSpace()
	if p.pos >= len(p.s) {
		return nil, ErrEmptyDocument
	}
	root, err := p.parseElement()
	if err != nil {
		return nil, err
	}
	p.skipOuterSpace()
	if p.pos != len(p.s) {
		return nil, canonErr(p.pos, "content after document element")
	}
	return root, nil
}

// skipOuterSpace consumes whitespace outside the document element. The
// reference parser drops any top-level character data; restricting it
// to whitespace here is deliberate hardening (prologue junk rejected).
func (p *canonParser) skipOuterSpace() {
	for p.pos < len(p.s) {
		switch p.s[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *canonParser) skipTagSpace() int {
	start := p.pos
	for p.pos < len(p.s) {
		switch p.s[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return p.pos - start
		}
	}
	return p.pos - start
}

func isNameStart(c byte) bool {
	return c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c == '_'
}

func isNameByte(c byte) bool {
	return isNameStart(c) || c >= '0' && c <= '9' || c == '-' || c == '.'
}

// scanName lexes an element or attribute name. The charset is the
// ASCII portion of XML names minus ':' — the canonical subset has no
// namespaces, and rejecting the separator outright means a prefixed
// name can never silently alias its local part.
func (p *canonParser) scanName() (string, error) {
	start := p.pos
	if p.pos >= len(p.s) || !isNameStart(p.s[p.pos]) {
		return "", canonErr(p.pos, "invalid name")
	}
	p.pos++
	for p.pos < len(p.s) && isNameByte(p.s[p.pos]) {
		p.pos++
	}
	n := p.s[start:p.pos]
	if in, ok := internedNames[n]; ok {
		return in, nil
	}
	return n, nil
}

func (p *canonParser) newElem() *Element {
	if len(p.elemChunk) == 0 {
		// First chunk is sized from the one-time '<' count (small
		// documents get a right-sized slab); refills use a fixed size so
		// element-dense input costs O(1) per refill, never a rescan.
		n := p.elemEstimate
		p.elemEstimate = 256
		p.elemChunk = make([]Element, n)
	}
	e := &p.elemChunk[0]
	p.elemChunk = p.elemChunk[1:]
	return e
}

// takeKids copies the child pointers accumulated past mark into the
// pointer arena and truncates the scratch stack.
func (p *canonParser) takeKids(mark int) []*Element {
	n := len(p.childStack) - mark
	if n == 0 {
		return nil
	}
	if len(p.kidChunk) < n {
		// What is left of the previous chunk is abandoned; refills have a
		// fixed size, like the element slab's.
		p.kidChunk = make([]*Element, max(n, p.kidEstimate))
		p.kidEstimate = 64
	}
	out := p.kidChunk[:n:n]
	p.kidChunk = p.kidChunk[n:]
	copy(out, p.childStack[mark:])
	p.childStack = p.childStack[:mark]
	return out
}

// seedMemo installs b as e's memoized canonical bytes. Only called when
// the lexer proved the segment verbatim-canonical, so Canonical() on e
// returns the input subslice unchanged. Mutators invalidate seeded
// memos exactly like computed ones — it is the same atomic slot.
func (p *canonParser) seedMemo(e *Element, b []byte) {
	if len(p.seedChunk) == 0 {
		p.seedChunk = make([][]byte, p.seedEstimate)
		p.seedEstimate = 16
	}
	sp := &p.seedChunk[0]
	p.seedChunk = p.seedChunk[1:]
	*sp = b
	e.canon.Store(sp)
}

func (p *canonParser) parseElement() (*Element, error) {
	if p.depth >= maxCanonicalDepth {
		return nil, canonErr(p.pos, "nesting too deep")
	}
	p.depth++
	defer func() { p.depth-- }()

	start := p.pos
	if p.pos >= len(p.s) || p.s[p.pos] != '<' {
		return nil, canonErr(p.pos, "expected element")
	}
	p.pos++
	if p.pos < len(p.s) && (p.s[p.pos] == '!' || p.s[p.pos] == '?') {
		// DTDs, comments, CDATA and processing instructions are outside
		// the subset by construction — rejected here, before any content
		// is interpreted, with work proportional to the scanned prefix.
		return nil, canonErr(p.pos, "markup declaration not in canonical subset")
	}
	name, err := p.scanName()
	if err != nil {
		return nil, err
	}
	e := p.newElem()
	e.Name = name

	// verbatim tracks whether the input segment for this element is
	// byte-identical to its canonical serialization; any deviation —
	// spacing, unsorted attributes, non-canonical escapes, self-closing
	// form, text after children, trimmed whitespace — clears it.
	verbatim := true
	selfClose := false
	p.attrBuf = p.attrBuf[:0]
	prevAttr := ""
	for {
		wsStart := p.pos
		ws := p.skipTagSpace()
		if p.pos >= len(p.s) {
			return nil, canonErr(p.pos, "unterminated start tag")
		}
		c := p.s[p.pos]
		if c == '>' {
			if ws != 0 {
				verbatim = false
			}
			p.pos++
			break
		}
		if c == '/' {
			if p.pos+1 >= len(p.s) || p.s[p.pos+1] != '>' {
				return nil, canonErr(p.pos, "malformed empty-element tag")
			}
			p.pos += 2
			selfClose = true
			verbatim = false // Canonical() never emits <X/>
			break
		}
		if ws == 0 {
			return nil, canonErr(p.pos, "expected whitespace before attribute")
		}
		if ws != 1 || p.s[wsStart] != ' ' {
			verbatim = false
		}
		aname, err := p.scanName()
		if err != nil {
			return nil, err
		}
		if aname == "xmlns" {
			// The reference parser drops xmlns attributes; the subset has
			// no namespaces, so carrying one is rejected rather than
			// silently dropped.
			return nil, canonErr(p.pos, "namespace declaration not in canonical subset")
		}
		for i := range p.attrBuf {
			if p.attrBuf[i].Name == aname {
				return nil, canonErr(p.pos, "duplicate attribute")
			}
		}
		if aname <= prevAttr {
			verbatim = false // canonical form sorts attributes strictly
		}
		prevAttr = aname
		if p.skipTagSpace() != 0 {
			verbatim = false
		}
		if p.pos >= len(p.s) || p.s[p.pos] != '=' {
			return nil, canonErr(p.pos, "expected = after attribute name")
		}
		p.pos++
		if p.skipTagSpace() != 0 {
			verbatim = false
		}
		if p.pos >= len(p.s) || p.s[p.pos] != '"' {
			return nil, canonErr(p.pos, "expected double-quoted attribute value")
		}
		p.pos++
		val, valVerbatim, err := p.scanAttrValue()
		if err != nil {
			return nil, err
		}
		if !valVerbatim {
			verbatim = false
		}
		p.pos++ // closing quote, checked by scanAttrValue
		p.attrBuf = append(p.attrBuf, Attr{Name: aname, Value: val})
	}
	if len(p.attrBuf) > 0 {
		e.Attrs = make([]Attr, len(p.attrBuf))
		copy(e.Attrs, p.attrBuf)
	}
	if selfClose {
		return e, nil
	}

	childMark := len(p.childStack)
	textMark := len(p.textStack)
	for {
		piece, pieceVerbatim, err := p.scanText()
		if err != nil {
			return nil, err
		}
		if piece != "" {
			if !pieceVerbatim || len(p.childStack) > childMark {
				// Non-canonical escapes, or character data after a child:
				// Canonical() emits all text before the children.
				verbatim = false
			}
			p.textStack = append(p.textStack, piece)
		}
		if p.pos+1 >= len(p.s) {
			return nil, canonErr(p.pos, "unexpected EOF inside element")
		}
		if p.s[p.pos+1] == '/' {
			p.pos += 2
			ename, err := p.scanName()
			if err != nil {
				return nil, err
			}
			if ename != e.Name {
				return nil, canonErr(p.pos, "mismatched end tag")
			}
			if p.skipTagSpace() != 0 {
				verbatim = false
			}
			if p.pos >= len(p.s) || p.s[p.pos] != '>' {
				return nil, canonErr(p.pos, "malformed end tag")
			}
			p.pos++
			break
		}
		child, err := p.parseElement()
		if err != nil {
			return nil, err
		}
		child.parent = e
		if child.canon.Load() == nil {
			verbatim = false // child not verbatim ⇒ parent segment differs
		}
		p.childStack = append(p.childStack, child)
	}
	e.Children = p.takeKids(childMark)

	switch len(p.textStack) - textMark {
	case 0:
	case 1:
		e.Text = p.textStack[textMark]
	default:
		e.Text = strings.Join(p.textStack[textMark:], "")
	}
	p.textStack = p.textStack[:textMark]
	if len(e.Children) > 0 && e.Text != "" {
		// Reference semantics: container text is trimmed. A trim that
		// changes the text means the input bytes differ from what
		// Canonical() re-emits.
		trimmed := strings.TrimSpace(e.Text)
		if len(trimmed) != len(e.Text) {
			verbatim = false
			e.Text = trimmed
		}
	}
	if verbatim {
		p.seedMemo(e, p.data[start:p.pos:p.pos])
	}
	return e, nil
}

// validHighChars reports whether s (known to contain bytes ≥ 0x80) is
// valid UTF-8 and free of the non-characters the XML character range
// excludes (U+FFFE, U+FFFF) — the same set encoding/xml rejects, so the
// subset property (accepted here ⇒ accepted by the reference parser)
// holds on non-ASCII content too.
func validHighChars(s string) bool {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			return false
		}
		if r == 0xFFFE || r == 0xFFFF {
			return false
		}
		i += size
	}
	return true
}

// scanEntity decodes the escape starting at the current '&'. Only the
// canonical escape table is accepted.
func (p *canonParser) scanEntity() (ent *entity, err error) {
	rest := p.s[p.pos:]
	for i := range entities {
		if strings.HasPrefix(rest, entities[i].raw) {
			p.pos += len(entities[i].raw)
			return &entities[i], nil
		}
	}
	return nil, canonErr(p.pos, "entity not in canonical escape set")
}

// scanText lexes character data up to the next '<' (or EOF, handled by
// the caller). It returns the decoded text, zero-copy when no escapes
// occur, plus whether the raw bytes are exactly what Canonical() would
// emit for the decoded value.
//
// Strictness (all narrower than the reference parser, so canonical
// input is unaffected): raw '>' is rejected — canonical text always
// escapes it, and rejecting it closes the unescaped "]]>" divergence —
// and so are '\r' (the reference normalizes line endings; the subset
// has no raw carriage returns to normalize) and all other control
// bytes, plus invalid UTF-8.
func (p *canonParser) scanText() (string, bool, error) {
	start := p.pos
	pieceStart := p.pos
	var b *strings.Builder
	verbatim := true
	checkUTF8 := false
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		switch {
		case c == '<':
			goto done
		case c == '&':
			ent, err := p.scanEntity() // advances past the escape
			if err != nil {
				return "", false, err
			}
			if b == nil {
				// No Grow: the Builder's geometric growth keeps the decode
				// amortized-linear in the piece length; pre-reserving the
				// remaining document here would make escape-dense input
				// quadratic in allocation.
				b = &strings.Builder{}
			}
			b.WriteString(p.s[pieceStart : p.pos-len(ent.raw)])
			b.WriteByte(ent.ch)
			pieceStart = p.pos
			if !ent.textCanon {
				verbatim = false
			}
			continue
		case c == '>':
			return "", false, canonErr(p.pos, "unescaped > in character data")
		case c < 0x20 && c != '\t' && c != '\n':
			return "", false, canonErr(p.pos, "control byte in character data")
		case c >= utf8.RuneSelf:
			checkUTF8 = true
		}
		p.pos++
	}
done:
	raw := p.s[pieceStart:p.pos]
	if checkUTF8 && !validHighChars(p.s[start:p.pos]) {
		return "", false, canonErr(start, "invalid character data encoding")
	}
	if b == nil {
		return raw, verbatim, nil
	}
	b.WriteString(raw)
	return b.String(), verbatim, nil
}

// scanAttrValue lexes a double-quoted attribute value, stopping AT the
// closing quote. Raw '<' is forbidden (as in XML proper); raw '\t' and
// '\n' are legal but non-canonical (Canonical() escapes them), raw '\r'
// and other control bytes are rejected outright.
func (p *canonParser) scanAttrValue() (string, bool, error) {
	start := p.pos
	pieceStart := p.pos
	var b *strings.Builder
	verbatim := true
	checkUTF8 := false
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		switch {
		case c == '"':
			raw := p.s[pieceStart:p.pos]
			if checkUTF8 && !validHighChars(p.s[start:p.pos]) {
				return "", false, canonErr(start, "invalid attribute value encoding")
			}
			if b == nil {
				return raw, verbatim, nil
			}
			b.WriteString(raw)
			return b.String(), verbatim, nil
		case c == '&':
			ent, err := p.scanEntity()
			if err != nil {
				return "", false, err
			}
			if b == nil {
				// No Grow: the Builder's geometric growth keeps the decode
				// amortized-linear in the piece length; pre-reserving the
				// remaining document here would make escape-dense input
				// quadratic in allocation.
				b = &strings.Builder{}
			}
			b.WriteString(p.s[pieceStart : p.pos-len(ent.raw)])
			b.WriteByte(ent.ch)
			pieceStart = p.pos
			if !ent.attrCanon {
				verbatim = false
			}
			continue
		case c == '<':
			return "", false, canonErr(p.pos, "raw < in attribute value")
		case c == '\t' || c == '\n':
			verbatim = false // legal XML, but Canonical() escapes these
		case c < 0x20:
			return "", false, canonErr(p.pos, "control byte in attribute value")
		case c >= utf8.RuneSelf:
			checkUTF8 = true
		}
		p.pos++
	}
	return "", false, canonErr(p.pos, "unterminated attribute value")
}
