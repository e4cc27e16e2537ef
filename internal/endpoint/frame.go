package endpoint

import (
	"encoding/binary"
	"errors"
	"fmt"

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

// Room is the one element of a frame whose data its sender writes into
// the frame as it is built, instead of handing in bytes to be copied
// there: a secure layer seals its wire in that place.
type Room struct {
	// Index is the element, among those the frame carries, whose data the
	// room holds; that element's Data is not read.
	Index int
	// Size is the length of the data, known before it is written.
	Size int
	// Fill appends exactly Size bytes to dst, as append does, and returns
	// the result. dst is the frame so far, with capacity for the rest.
	Fill func(dst []byte) ([]byte, error)
}

var errRoom = errors.New("endpoint: a room names no element of its frame")

// BuildFrame builds the frame that carries elems along r, in one buffer
// sized up front. It reads elems' data once, into the frame, and keeps
// nothing; with a room, the data of elems[room.Index] is what room.Fill
// writes in its place. Before it allocates anything it refuses, with
// ErrFrameTooLarge, a frame ParseFrame would refuse.
func BuildFrame(r Route, room *Room, elems ...Element) ([]byte, error) {
	at := -1
	if room != nil {
		if at = room.Index; at < 0 || at >= len(elems) || room.Size < 0 {
			return nil, errRoom
		}
	}
	if len(r.Src) > maxField || len(r.Service)+len(r.Param) > maxField || len(r.CorrID) > maxField || len(elems) > maxElements {
		return nil, ErrFrameTooLarge
	}
	if r.Corr > CorrResponse {
		return nil, errPrefix
	}
	size := len(frameMagic) + 2 + len(r.Src) + 2 + len(r.Service) + len(r.Param) + 1 + 2 + len(r.CorrID) + 2
	for i := range elems {
		n := len(elems[i].Data)
		if i == at {
			n = room.Size
		}
		if len(elems[i].Name) > maxField || n > maxElemData {
			return nil, ErrFrameTooLarge
		}
		size += 2 + len(elems[i].Name) + 4 + n
	}
	out := append(make([]byte, 0, size), frameMagic[:]...)
	out = appendString(out, string(r.Src))
	out = binary.BigEndian.AppendUint16(out, uint16(len(r.Service)+len(r.Param)))
	out = append(append(out, r.Service...), r.Param...)
	out = binary.BigEndian.AppendUint16(append(out, byte(r.Corr)), uint16(len(r.CorrID)))
	out = binary.BigEndian.AppendUint16(append(out, r.CorrID...), uint16(len(elems)))
	for i := range elems {
		out = appendString(out, elems[i].Name)
		if i != at {
			out = append(binary.BigEndian.AppendUint32(out, uint32(len(elems[i].Data))), elems[i].Data...)
			continue
		}
		out = binary.BigEndian.AppendUint32(out, uint32(room.Size))
		filled, err := room.Fill(out)
		if err != nil {
			return nil, err
		}
		if len(filled) != len(out)+room.Size {
			return nil, fmt.Errorf("endpoint: a room of %d bytes filled with %d", room.Size, len(filled)-len(out))
		}
		out = filled
	}
	return out, nil
}

// NewFrame is BuildFrame without a room, for elements that fit a frame:
// it panics on what BuildFrame refuses. A sender whose elements may not
// fit calls BuildFrame.
func NewFrame(r Route, elems ...Element) []byte {
	frame, err := BuildFrame(r, nil, elems...)
	if err != nil {
		panic(err)
	}
	return frame
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
