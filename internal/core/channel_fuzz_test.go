package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"time"
)

// FuzzChannelFrame fuzzes the three wire forms a session channel adds from
// BEHIND their tags, where FuzzOpen's byte mutations never get: the fuzzer
// picks a sequence number, the plaintext, how far from now the frame says
// it was sent, and bytes to flip afterwards; the harness seals that under
// the table channel's key and opens it the way a group pipe's receiver
// does, with a guard. With form ModeRefusal it builds the unsigned refusal
// of frame seq instead, plain trailing it; with ModeAccept, the honest
// accept of a pending offer (fuzzAccept).
//
// Properties: it never panics; it returns exactly one of an Opened and an
// error, except for the two refusals that are the channel peer's — stale,
// replayed — which come with both; a frame nobody touched opens to
// plain[8:], sent when the harness said, and whatever its bytes say, in
// the name of the channel's peer and group; the same bytes do not open
// twice; a frame somebody touched does not open at all; and an open
// allocates an Opened, or an error, and nothing that grows with the frame.
func FuzzChannelFrame(f *testing.F) {
	body := []byte("fuzz seed body")
	plain := append(make([]byte, frameTimeSize), body...)
	flip := func(at uint16, mask byte) []byte { return []byte{byte(at >> 8), byte(at), mask} }
	f.Add(uint64(1), plain, int64(0), []byte(nil), byte(ModeChannel))
	f.Add(uint64(seqWindow+1), plain[:frameTimeSize], int64(-time.Second), []byte(nil), byte(ModeChannel))
	f.Add(uint64(1), plain[:frameTimeSize-1], int64(0), []byte(nil), byte(ModeChannel))
	f.Add(uint64(1), []byte(nil), int64(0), []byte(nil), byte(ModeChannel))
	f.Add(uint64(2), plain, int64(-3*time.Minute), []byte(nil), byte(ModeChannel))
	f.Add(uint64(2), plain, int64(3*time.Minute), []byte(nil), byte(ModeChannel))
	f.Add(uint64(0), plain, int64(0), []byte(nil), byte(ModeChannel))
	f.Add(uint64(channelBudget+1), plain, int64(0), []byte(nil), byte(ModeChannel))
	for _, at := range []uint16{0, 1, 1 + channelIDSize, framePrefix, framePrefix + frameTimeSize, framePrefix + frameTimeSize + uint16(len(body))} {
		f.Add(uint64(3), plain, int64(0), flip(at, 0x01), byte(ModeChannel))
	}
	f.Add(uint64(7), []byte(nil), int64(0), []byte(nil), byte(ModeRefusal))
	f.Add(uint64(7), []byte{0}, int64(0), []byte(nil), byte(ModeRefusal))
	f.Add(uint64(7), []byte(nil), int64(0), flip(0, 'R'^'C'), byte(ModeRefusal))
	f.Add(uint64(7), []byte(nil), int64(0), flip(9, 0x40), byte(ModeRefusal))
	accept := byte(ModeAccept)
	f.Add(uint64(0), []byte(nil), int64(0), []byte(nil), accept)
	f.Add(uint64(1), []byte(nil), int64(0), []byte(nil), accept)
	f.Add(uint64(2), []byte(nil), int64(0), []byte(nil), accept)
	f.Add(uint64(0), []byte(nil), int64(offerLifetime+time.Second), []byte(nil), accept)
	f.Add(uint64(0), []byte(nil), int64(-time.Second), []byte(nil), accept)
	f.Add(uint64(0), []byte{0}, int64(0), []byte(nil), accept)
	for _, at := range []uint16{0, 1 + 3, 1 + channelIDSize + 4, acceptSize - 1} {
		f.Add(uint64(0), []byte(nil), int64(0), flip(at, 0x02), accept)
	}
	f.Add(uint64(0), []byte(nil), int64(0), flip(0, 'A'^'R'), accept)
	f.Add(uint64(0), []byte(nil), int64(0), flip(0, 'A'^'C'), accept)

	// What one open may allocate: the Opened, or an error value and its
	// text. The open is in place, so nothing of it is per byte.
	const allocFixed = 8 << 10
	var before, after runtime.MemStats
	f.Fuzz(func(t *testing.T, seq uint64, plain []byte, sentOffset int64, flips []byte, form byte) {
		if Mode(form) == ModeAccept {
			fuzzAccept(t, seq, plain, sentOffset, flips)
			return
		}
		refusal := Mode(form) == ModeRefusal
		now := time.Now()
		sentAt := time.Unix(0, now.UnixNano()+sentOffset)
		var sealed []byte
		if refusal {
			sealed = append(appendFrameRef(nil, ModeRefusal, frameRef{tableChannelID, seq}), plain...)
		} else {
			if len(plain) >= frameTimeSize {
				binary.BigEndian.PutUint64(plain, uint64(sentAt.UnixNano()))
			}
			sealed = forgeFrame(tableChannelID, seq, plain)
		}
		wire := bytes.Clone(sealed)
		for ; len(flips) >= 3; flips = flips[3:] {
			wire[int(binary.BigEndian.Uint16(flips))%len(wire)] ^= flips[2]
		}
		touched := !bytes.Equal(wire, sealed)

		chans, guard := tableChannels(), NewReplayGuard(0, 0)
		const anyForm = formEnvelope | formSlice | formChannel
		delivered := bytes.Clone(wire)
		runtime.ReadMemStats(&before)
		o, err := openWire(nil, delivered, anyForm, nil, guard, chans, now)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > allocFixed {
			t.Fatalf("opening %d bytes allocated %d bytes, limit %d", len(wire), got, allocFixed)
		}
		peers := errors.Is(err, ErrMessageStale) || errors.Is(err, ErrMessageReplayed)
		if (o != nil) != (err == nil || peers) {
			t.Fatalf("openWire returned (%+v, %v)", o, err)
		}
		if guard.Len() != 0 {
			t.Fatalf("%d guard entries: a frame or a refusal never enters the guard's table", guard.Len())
		}
		if o != nil && o.Mode == ModeChannel && (o.via == nil || o.Sender != "urn:jxta:sender" || o.Group != "g") {
			t.Fatalf("a frame opened in the name of %q, group %q: want the channel's", o.Sender, o.Group)
		}

		if Mode(wire[0]) == ModeRefusal {
			// Unsigned: whatever 24 bytes follow the mode byte are a refusal, and
			// anything else is not.
			if len(wire) != framePrefix {
				if !errors.Is(err, ErrEnvelope) {
					t.Fatalf("a refusal of %d bytes: err = %v, want ErrEnvelope", len(wire), err)
				}
				return
			}
			want := frameRef{channelID(wire[1:]), binary.BigEndian.Uint64(wire[1+channelIDSize:])}
			if err != nil || o.Mode != ModeRefusal || o.refusal != want || o.Body != nil {
				t.Fatalf("refusal of %+v opened to (%+v, %v)", want, o, err)
			}
			return
		}
		if touched {
			if err == nil || o != nil {
				t.Fatalf("a frame with flipped bytes opened: (%+v, %v)", o, err)
			}
			return
		}
		stale := now.Sub(sentAt) > 2*time.Minute || now.Sub(sentAt) < -2*time.Minute
		switch {
		case len(plain) < frameTimeSize:
			if !errors.Is(err, ErrEnvelope) {
				t.Fatalf("%d bytes behind the tag: err = %v, want ErrEnvelope", len(plain), err)
			}
			return
		case stale:
			if !errors.Is(err, ErrMessageStale) {
				t.Fatalf("sent %v from now: err = %v, want ErrMessageStale", time.Duration(sentOffset), err)
			}
		case seq == 0 || seq > channelBudget:
			if !errors.Is(err, ErrMessageReplayed) {
				t.Fatalf("sequence number %d: err = %v, want ErrMessageReplayed", seq, err)
			}
		case err != nil:
			t.Fatalf("an honest frame: %v", err)
		}
		if !bytes.Equal(o.Body, plain[frameTimeSize:]) || !o.SentAt.Equal(sentAt) {
			t.Fatalf("opened body %q sent at %v, sealed %q at %v", o.Body, o.SentAt, plain[frameTimeSize:], sentAt)
		}
		if len(o.Body) > 0 && &o.Body[0] != &delivered[framePrefix+frameTimeSize] {
			t.Fatal("the body is not a view of the delivered frame")
		}
		// The same bytes again: refused, by the check that refused them the
		// first time or, once admitted, by the window.
		wantAgain := err
		if err == nil {
			wantAgain = ErrMessageReplayed
		}
		if again, err := openWire(nil, wire, anyForm, nil, guard, chans, now); !errors.Is(err, wantAgain) || again == nil {
			t.Fatalf("the same frame again: (%+v, %v), want %v", again, err, wantAgain)
		}
	})
}

// fuzzAccept is FuzzChannelFrame's accept. The harness makes an offer as
// sendEnvelope does and answers it as answerOffer does; seq%3 picks what
// the initiator's table then holds — that offer, an offer under the same
// channel ID with another ephemeral, or nothing; trailing is appended to
// the accept, offset (taken within an hour) is how long after the offer it
// arrives, and flips are flipped in it last.
//
// Properties: it never panics; it opens to exactly one of an Opened and an
// error, and an untouched accept always opens; it never enters the
// guard's table; opening it and handing it to the table allocates no more
// than FuzzOpen's bound; a channel comes up exactly when the accept is
// untouched, the table holds the offer it answers and that offer is still
// pending — and then the initiator's first frame opens at the responder;
// and an accept that completed nothing left the offer to its honest accept.
func fuzzAccept(t *testing.T, seq uint64, trailing []byte, offset int64, flips []byte) {
	now := time.Now()
	chans, hs, ends := pendingOffer(t, now)
	respAEAD, accept, err := answer(senderKP, hs.id, ends)
	if err != nil {
		t.Fatal(err)
	}
	honest := accept[:]
	holds := seq%3 == 0
	switch seq % 3 {
	case 1:
		other, _, _ := pendingOffer(t, now)
		c, _ := other.out.Get(offerPair, now)
		c.id = hs.id
		chans = other
	case 2:
		chans = &channelTable{}
	}
	wire := append(bytes.Clone(honest), trailing...)
	for ; len(flips) >= 3; flips = flips[3:] {
		wire[int(binary.BigEndian.Uint16(flips))%len(wire)] ^= flips[2]
	}
	touched := !bytes.Equal(wire, honest)
	at := now.Add(time.Duration(offset % int64(time.Hour)))
	pending := !at.After(now.Add(offerLifetime))

	const (
		allocPerByte = 8
		allocFixed   = 32 << 10
	)
	var before, after runtime.MemStats
	guard := NewReplayGuard(0, 0)
	delivered := bytes.Clone(wire)
	runtime.ReadMemStats(&before)
	o, err := openWire(nil, delivered, formEnvelope|formSlice|formChannel, nil, guard, chans, at)
	outcome := acceptIgnored
	if err == nil && o.Mode == ModeAccept {
		outcome = chans.accepted(offerPair, o.accept, at)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(allocFixed+allocPerByte*len(wire)); got > limit {
		t.Fatalf("opening and handing over %d bytes allocated %d bytes, limit %d", len(wire), got, limit)
	}
	if (o == nil) == (err == nil) || !touched && err != nil {
		t.Fatalf("an accept (touched %v) opened to (%+v, %v)", touched, o, err)
	}
	if guard.Len() != 0 {
		t.Fatalf("%d guard entries: an accept never enters the guard's table", guard.Len())
	}
	if want := !touched && holds && pending; (outcome == acceptEstablished) != want {
		t.Fatalf("touched %v, offer held %v, pending %v: established = %v", touched, holds, pending, !want)
	}
	if outcome != acceptEstablished {
		if holds && pending && chans.accepted(offerPair, (*acceptWire)(honest), at) != acceptEstablished {
			t.Fatal("an accept that completed nothing spent the offer its honest accept answers")
		}
		return
	}
	frame, aead, _, ok := chans.claimFrame(offerPair, "", at)
	in := &channelTable{}
	in.install(&inChannel{id: hs.id, pair: pairKey{"urn:jxta:recv", "g"}, aead: respAEAD}, at.Add(time.Hour), at)
	if !ok {
		t.Fatal("established, and no frame to send")
	}
	if got, err := openWire(nil, sealFrame(nil, aead, frame, []byte("first"), at), formChannel, nil, nil, in, at); err != nil || string(got.Body) != "first" {
		t.Fatalf("the initiator's first frame opened at the responder to (%+v, %v)", got, err)
	}
}
