package endpoint

import (
	"encoding/binary"

	"jxtaoverlay/internal/keys"
)

// A frame is what one message is on the wire: magic "JXF1", the routing
// prefix, then the element section (message.go).
//
//	u16 len ‖ src      the sender's peer ID, as the sender claims it
//	u16 len ‖ svc      the service the frame is for
//	u8 corr            CorrNone, CorrRequest or CorrResponse
//	u16 len ‖ id       the correlation ID (empty when corr is CorrNone)
//	u16 count ‖ elements
//
// There is no destination field: the transport addresses the packet, and
// no receiver reads one.
var frameMagic = [4]byte{'J', 'X', 'F', '1'}

// A relay frame asks a relaying node to forward the frame behind its
// prefix, untouched: magic "JXR1", u16 len ‖ target peer ID, the frame.
var relayMagic = [4]byte{'J', 'X', 'R', '1'}

// Corr says whether a frame is a request, a response to one, or neither.
type Corr byte

// Correlation kinds.
const (
	CorrNone Corr = iota
	CorrRequest
	CorrResponse
)

// Route is what a frame's prefix says.
type Route struct {
	Src keys.PeerID
	// Service names the handler the frame is for. Param, when set, follows
	// it in the same field — a pipe's ID behind the pipe service's name —
	// so that a sender never builds the concatenation.
	Service, Param string
	Corr           Corr
	// CorrID is only read: a response names its request by a view of the
	// request's frame.
	CorrID []byte
}

// NewFrame builds the frame that carries elems along r, in one buffer
// sized up front. It reads elems' data once, into the frame, and keeps
// nothing.
func NewFrame(r Route, elems ...Element) []byte {
	size := len(frameMagic) + 2 + len(r.Src) + 2 + len(r.Service) + len(r.Param) + 1 + 2 + len(r.CorrID) + elementsLen(elems)
	out := append(make([]byte, 0, size), frameMagic[:]...)
	out = appendString(out, string(r.Src))
	out = binary.BigEndian.AppendUint16(out, uint16(len(r.Service)+len(r.Param)))
	out = append(append(out, r.Service...), r.Param...)
	out = binary.BigEndian.AppendUint16(append(out, byte(r.Corr)), uint16(len(r.CorrID)))
	return appendElements(append(out, r.CorrID...), elems)
}

func appendString(out []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint16(out, uint16(len(s))), s...)
}

// Frame is a decoded frame. Src, Service and CorrID are views into the
// packet; Msg's element data are too.
type Frame struct {
	Src, Service, CorrID []byte
	Corr                 Corr
	Msg                  *Message
}

// ParseFrame decodes a frame NewFrame built. A relay frame is not one:
// cutRelay takes it apart.
func ParseFrame(data []byte) (Frame, error) {
	if len(data) < len(frameMagic) || [4]byte(data[:4]) != frameMagic {
		return Frame{}, errMagic
	}
	var f Frame
	var rest []byte
	var ok bool
	f.Src, rest, _ = cutField(data[4:], 2)
	f.Service, rest, ok = cutField(rest, 2)
	if !ok || len(rest) < 1 || Corr(rest[0]) > CorrResponse {
		return Frame{}, errPrefix
	}
	f.Corr = Corr(rest[0])
	if f.CorrID, rest, ok = cutField(rest[1:], 2); !ok {
		return Frame{}, errPrefix
	}
	var err error
	if f.Msg, err = parseElements(rest); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// relayFrame wraps frame for a relay to forward to to. It is the one
// copy on the NAT path: the direct send is tried with frame first.
func relayFrame(to keys.PeerID, frame []byte) []byte {
	out := append(make([]byte, 0, len(relayMagic)+2+len(to)+len(frame)), relayMagic[:]...)
	return append(appendString(out, string(to)), frame...)
}

// cutRelay splits a relay frame into its target and the frame it
// carries, both views of data; ok is false for anything else.
func cutRelay(data []byte) (to, frame []byte, ok bool) {
	if len(data) < len(relayMagic) || [4]byte(data[:4]) != relayMagic {
		return nil, nil, false
	}
	to, frame, ok = cutField(data[4:], 2)
	return to, frame, ok
}
