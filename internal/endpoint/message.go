// Package endpoint implements the JXTA endpoint abstraction over a
// transport: messages made of named elements, a binary frame codec,
// per-service demultiplexing, request/response correlation, and relay
// routing so brokers can carry traffic between peers that cannot reach
// each other directly (the "beyond broadcast range or NAT" role of
// JXTA-Overlay brokers).
//
// # One buffer per message
//
// A sender builds a frame once: BuildFrame sizes one buffer up front and
// writes the routing prefix and the elements' data into it, reading the
// caller's Message and writing nothing back. One element may be a Room:
// its data is written into the frame by its sender as the frame is built,
// which is how a secure layer seals its wire — it seals into the frame,
// so a body is copied once, into the frame, and encrypted there. A frame its
// recipient's parser would refuse is not built (ErrFrameTooLarge), so a
// send that returns nil was not lost to a size. Send hands that buffer to
// the Transport, which owns it from then on and delivers that same
// buffer: nothing copies a frame between the sender's build and the
// recipient's open. Receiving, ParseFrame returns the prefix's fields and
// the elements' Data as views into the packet, under one rule —
//
//	a delivered frame belongs to its handler alone; neither the sender
//	nor the fabric reads or writes it once Send has returned nil.
//
// The handler a message is dispatched to (or the Request it answers)
// therefore owns every byte its elements show. It may keep them: a
// retained view keeps the whole frame alive, so copy a small element out
// of a large frame before holding it long. It may overwrite them: the
// secure open path decrypts a sec:env element where it lies. It must not
// assume they are still what the sender sent once it has handed them to
// code that does. Names are never views (the parser interns or copies
// them), and a message being SENT is only read. Whoever sends raw bytes
// it means to use again (a replay of a captured frame) hands the
// transport a copy.
//
// The bytes are the handler's; the table that indexes them is only lent:
//
//	a delivery parses its frame's elements into a table borrowed from one
//	pool, hands it to the handler, and takes it back, cleared, when the
//	handler returns.
//
// So receiving a frame allocates no table. A handler that hands a message
// on past its return (a group pipe's queue) holds a copy from the same
// pool (Hold) and Releases it once done; one that wrongly kept the table
// reads empty elements. A Request's caller is handed a table of its own,
// which it keeps.
//
// SendEach is the one exception to "its handler alone": it builds one
// frame and sends that buffer to each of several peers, so every one of
// their deliveries reads the same bytes, on delivery goroutines of their
// own. Its caller sends only what the receiving handlers read and never
// write — a broker's pushes of notices and advertisements, not a secure
// wire, which is opened in place.
package endpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"unsafe"
)

// Element is one named payload inside a message — JXTA's message
// element. Security layers attach signatures and envelopes as additional
// elements without disturbing the rest of the message.
type Element struct {
	Name string
	Data []byte
}

// Message is an ordered multiset of elements.
type Message struct {
	Elements []Element
}

// A message is allocated with room for its elements behind it, in the
// one allocation: the Message a caller holds points into the struct, which
// stays live as long as it does. NewMessage leaves room for four, so a
// message built by a chain of up to four Adds costs one allocation; a
// parsed message gets the smallest room its count fits.
type (
	room2 struct {
		Message
		room [2]Element
	}
	room4 struct {
		Message
		room [4]Element
	}
	room8 struct {
		Message
		room [8]Element
	}
)

// NewMessage returns an empty message.
func NewMessage() *Message {
	m := new(room4)
	m.Elements = m.room[:0]
	return &m.Message
}

// newMessage returns a message of n zero elements, in one allocation
// when n fits a room.
func newMessage(n int) *Message {
	switch {
	case n <= 2:
		m := new(room2)
		m.Elements = m.room[:n]
		return &m.Message
	case n <= 4:
		m := new(room4)
		m.Elements = m.room[:n]
		return &m.Message
	case n <= 8:
		m := new(room8)
		m.Elements = m.room[:n]
		return &m.Message
	}
	return &Message{Elements: make([]Element, n)}
}

// Add appends an element and returns the message for chaining.
func (m *Message) Add(name string, data []byte) *Message {
	m.Elements = append(m.Elements, Element{Name: name, Data: data})
	return m
}

// AddString appends a text element whose data is value's own bytes, not
// a copy of them (ReadOnlyBytes): a message being sent is only read, and
// a handler is handed the parsed frame, never the sender's Message.
func (m *Message) AddString(name, value string) *Message {
	return m.Add(name, ReadOnlyBytes(value))
}

// ReadOnlyBytes views s as the []byte an element or a sealer takes,
// without the copy a conversion makes (for a 256 KiB text, a quarter of
// what sending it allocates). A string's bytes must never be written:
// nothing may be handed this view that could.
func ReadOnlyBytes(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// Get returns the data of the first element with the given name.
func (m *Message) Get(name string) ([]byte, bool) {
	for _, e := range m.Elements {
		if e.Name == name {
			return e.Data, true
		}
	}
	return nil, false
}

// GetString returns the first matching element's data as a string.
func (m *Message) GetString(name string) (string, bool) {
	b, ok := m.Get(name)
	return string(b), ok
}

// Has reports whether an element with the given name exists.
func (m *Message) Has(name string) bool {
	_, ok := m.Get(name)
	return ok
}

// The element section, shared by a frame and by Marshal's bare element
// codec: u16 element count, then per element u16 name length + name, u32
// data length + data. All integers big-endian.
//
// Marshal's codec is magic "JXM2" and the element section; a frame
// (frame.go) puts its routing prefix between a magic of its own and the
// same section.
var wireMagic = [4]byte{'J', 'X', 'M', '2'}

// Codec limits guard against malformed frames.
const (
	maxElements = 1 << 12
	maxElemData = 64 << 20
	// maxField is the longest name or routing field a u16 length can say.
	maxField = 0xffff
)

// ErrWire is wrapped by all codec parse failures. They carry no numbers:
// the decoders run on every delivery goroutine, whose stack a formatted
// error's arguments would grow.
var ErrWire = errors.New("endpoint: malformed wire message")

// ErrFrameTooLarge refuses, before it is built, a frame its recipient's
// parser would refuse: more elements than it reads, an element's data
// over 64 MiB, a name or routing field longer than its length can say.
var ErrFrameTooLarge = errors.New("endpoint: frame larger than a recipient parses")

// CheckElementData refuses, as BuildFrame would, element data of n bytes.
func CheckElementData(n int) error {
	if n > maxElemData {
		return ErrFrameTooLarge
	}
	return nil
}

var (
	errMagic     = fmt.Errorf("%w: bad magic", ErrWire)
	errPrefix    = fmt.Errorf("%w: routing prefix truncated or unknown", ErrWire)
	errCount     = fmt.Errorf("%w: element count missing or beyond the bytes behind it", ErrWire)
	errTruncated = fmt.Errorf("%w: element truncated", ErrWire)
	errTrailing  = fmt.Errorf("%w: trailing bytes", ErrWire)
)

// Marshal encodes the message's elements alone, without a routing prefix.
// Frames are what travel (NewFrame); this codec prices the element
// section on its own.
func (m *Message) Marshal() []byte {
	out := make([]byte, 0, len(wireMagic)+elementsLen(m.Elements))
	return appendElements(append(out, wireMagic[:]...), m.Elements)
}

// ParseMessage decodes what Marshal produced. The elements' Data are
// views into data (see the package comment for who may hold them); names
// come from the interned vocabulary, so it costs the Message, its elements
// in the same allocation, and nothing per element.
func ParseMessage(data []byte) (*Message, error) {
	if len(data) < len(wireMagic) || [4]byte(data[:4]) != wireMagic {
		return nil, errMagic
	}
	return parseMessage(data[4:])
}

// parseMessage decodes an element section into a message of its own.
func parseMessage(section []byte) (*Message, error) {
	n, err := elementCount(section)
	if err != nil {
		return nil, err
	}
	msg := newMessage(n)
	if err := parseElements(msg.Elements, section); err != nil {
		return nil, err
	}
	return msg, nil
}

// elementsLen is the size of elems' element section.
func elementsLen(elems []Element) int {
	n := 2
	for _, e := range elems {
		n += 2 + len(e.Name) + 4 + len(e.Data)
	}
	return n
}

// appendElements writes elems' element section behind out.
func appendElements(out []byte, elems []Element) []byte {
	out = binary.BigEndian.AppendUint16(out, uint16(len(elems)))
	for _, e := range elems {
		out = binary.BigEndian.AppendUint16(out, uint16(len(e.Name)))
		out = append(out, e.Name...)
		out = binary.BigEndian.AppendUint32(out, uint32(len(e.Data)))
		out = append(out, e.Data...)
	}
	return out
}

// elementCount reads the element count at the head of an element
// section. An element is at least its 6 bytes of lengths: the count is
// held against the bytes behind it before it sizes anything.
func elementCount(section []byte) (int, error) {
	if len(section) < 2 {
		return 0, errCount
	}
	n := int(binary.BigEndian.Uint16(section))
	if n > maxElements || n > (len(section)-2)/6 {
		return 0, errCount
	}
	return n, nil
}

// parseElements decodes an element section that must fill section
// exactly into table, which holds as many elements as it counts
// (elementCount). It is the one parser of the section, whether the table
// is a message's own (parseMessage) or lent to a delivery (lendParsed).
func parseElements(table []Element, section []byte) error {
	data := section[2:]
	for i := range table {
		e := &table[i]
		name, rest, _ := cutField(data, 2)
		var ok bool
		if e.Data, data, ok = cutField(rest, 4); !ok || len(e.Data) > maxElemData {
			return errTruncated
		}
		e.Name = intern(name)
	}
	if len(data) != 0 {
		return errTrailing
	}
	return nil
}

// Held is an element table lent from the one pool every delivery borrows
// its table from (the package comment): a Message with room for eight
// elements behind it. Release gives it back.
type Held struct {
	Message
	room [8]Element
}

var lent = sync.Pool{New: func() any { return new(Held) }}

// lend returns a table from the pool with n zero elements in use; a
// table of more than its room is made for the loan and dropped after it.
func lend(n int) *Held {
	h := lent.Get().(*Held)
	if n <= len(h.room) {
		h.Elements = h.room[:n]
	} else {
		h.Elements = make([]Element, n)
	}
	return h
}

// lendParsed parses an element section into a table lent from the pool.
func lendParsed(section []byte) (*Held, error) {
	n, err := elementCount(section)
	if err != nil {
		return nil, err
	}
	h := lend(n)
	if err := parseElements(h.Elements, section); err != nil {
		h.Release()
		return nil, err
	}
	return h, nil
}

// Hold copies a delivered message's element table into one lent from the
// pool, for a handler that keeps msg past its return (Handler); the
// elements' data stay views of the frame. The holder calls Release once
// it is done with the copy.
func Hold(msg *Message) *Held {
	h := lend(len(msg.Elements))
	copy(h.Elements, msg.Elements)
	return h
}

// Release clears h's table and gives it back to the pool. Whoever still
// holds h's Message, or its Elements, reads empty elements from then on,
// until the pool lends the table again.
func (h *Held) Release() {
	clear(h.Elements)
	h.Elements = h.room[:0]
	lent.Put(h)
}

// cutField reads one big-endian length of the given width and the field
// it counts, as a capacity-clipped view. A short input leaves nothing
// behind it, so down a chain of cuts only the last ok needs reading.
func cutField(data []byte, width int) (field, rest []byte, ok bool) {
	if len(data) < width {
		return nil, nil, false
	}
	n := int(binary.BigEndian.Uint16(data))
	if width == 4 {
		n = int(binary.BigEndian.Uint32(data))
	}
	if data = data[width:]; n < 0 || len(data) < n {
		return nil, nil, false
	}
	return data[:n:n], data[n:], true
}

// vocabulary is the fixed element-name vocabulary of the overlay
// (internal/proto's and the user database's; TestVocabularyHoldsProto
// fails on an internal/proto element name missing here). A map lookup keyed by a
// converted byte slice does not allocate, so a hit costs no string; a
// miss copies the name, which never pins the frame.
var vocabulary = func(names ...string) map[string]string {
	m := make(map[string]string, len(names))
	for _, n := range names {
		m[n] = n
	}
	return m
}(
	"op", "ok", "err", "user", "pass", "group", "groups", "desc", "adv", "advtype",
	"advid", "advsum", "peer", "peers", "keyword", "broker", "msg:body", "status", "all",
	"sec:chall", "sec:sid", "sec:sig", "sec:cred", "sec:env", "sec:share", "sec:tag",
	"file:name", "file:chunk", "file:data", "file:size", "file:nchunks", "file:digest",
	"task:name", "task:args", "task:out",
	"relay:rcpt", "relay:direct", "relay:queued", "relay:skipped", "relay:quota",
	"trace:id",
	"lease:id", "lease:ttl", "idem:key", "retry:after",
	"db:env", "db:body",
)

func intern(b []byte) string {
	if s, ok := vocabulary[string(b)]; ok {
		return s
	}
	return string(b)
}
