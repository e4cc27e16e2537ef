package core

import (
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/lru"
)

// Session channels. The paper's secureMsgPeer is E_PK(m, S_SK(m)) on
// every message: one RSA signature at the sender and a signature check
// and a key unwrap at the recipient, most of what a message costs. A
// channel pays them once per pair of peers: the first envelope to a peer
// carries, inside its signed header, an offer — a random channel ID and an
// ephemeral X25519 share — and the recipient answers with an unsigned
// accept carrying its own ephemeral share and a key confirmation. The key
// both derive takes one X25519 between the two ephemerals and one between
// the initiator's ephemeral and the agreement key the responder's
// credential certifies: only the offered peer can compute the second, so
// the accept needs no signature, and nobody can compute the first once
// both ephemerals are gone. Every later message to that peer is one AEAD
// frame under that key (SECURITY.md, "Session channels", has the
// transcript and what each part binds).
//
//	offer    ModeFull envelope; its signed header carries To and the offer,
//	         Channel ‖ Share (and the refused frame whose message it sends
//	         again, when it does)
//	accept   ModeAccept ‖ Channel[16] ‖ E_R[32] ‖ tag[16] — unsigned; the
//	         tag is an HMAC under a key derived beside the frame key
//	frame    ModeChannel ‖ Channel[16] ‖ seq u64 ‖
//	         AES-256-GCM(key, nonce = seq, aad = the 25 bytes in front,
//	         sent-at u64 (UnixNano) ‖ body) — to the end of the element
//	refusal  ModeRefusal ‖ Channel[16] ‖ seq u64 — unsigned
//
// A frame is a counter, a ciphertext and a tag: its sender and group are
// its channel's (open.go: what of the pipeline that makes unnecessary).
//
// Channels are directional: the initiator seals, the responder opens.
// A peer that answers has to make an offer of its own, so no key is
// ever used by two sealers and a frame bounced at its sender finds no
// inbound channel. This file holds the wire forms, the key schedule and
// the table; signing, verifying and sending are secure.go's.

const (
	channelIDSize = 16
	// framePrefix is mode ‖ Channel ‖ seq: the part of a frame in front of
	// its ciphertext section, and the whole of a refusal.
	framePrefix = 1 + channelIDSize + 8
	// frameTimeSize is the sent-at in front of a frame's body, in UnixNano.
	frameTimeSize = 8

	// channelLifetime bounds what one derived key protects in time. It is
	// far below any credential validity, so that a credential's NotAfter
	// decides only near its end.
	channelLifetime = 10 * time.Minute
	// channelBudget bounds it in messages: a counter nonce under AES-GCM is
	// sound to 2^32 messages, and this stays well below.
	channelBudget = 1 << 24
	// channelSkew is how much earlier the initiator retires a channel than
	// the responder drops it: the replay guard's default freshness window,
	// since clocks further apart already fail the time check.
	channelSkew = 2 * time.Minute
	// offerLifetime is how long an unanswered offer is repeated before a
	// new one replaces it: an ephemeral private key is not kept longer.
	offerLifetime = time.Minute
	// seqWindow is the reordering a channel tolerates, in messages. The
	// fabric delivers each packet on its own goroutine, so order is lost
	// among the messages in flight: a group pipe queues them in the order
	// their goroutines reach it, and one that finds the queue full waits
	// for room beside the others, in no order at all.
	seqWindow = 1024
	// channelTableCap bounds each direction's table: as many peers as the
	// client keeps verdicts for (cred.StoreCapacity, two per peer).
	channelTableCap = 1024
	// handshakeEvery spaces what a stranger can make this peer do: accepts
	// and re-sent accepts per (peer, group), refusals per channel.
	handshakeEvery = time.Second
	// refusalTableCap bounds the channels whose last refusal is remembered.
	refusalTableCap = 64

	// acceptTagSize is the key confirmation an accept ends in.
	acceptTagSize = 16
	// acceptSize is the whole of an accept: mode ‖ Channel ‖ E_R ‖ tag.
	acceptSize = 1 + channelIDSize + keys.ShareSize + acceptTagSize

	// channelKeyLabel names the key schedule and the frame layout the
	// derived key protects.
	channelKeyLabel = "jxta-overlay/session-channel/v3"
)

type channelID [channelIDSize]byte

// pairKey names a channel's far end: one channel per direction, peer and
// group.
type pairKey struct {
	peer  keys.PeerID
	group string
}

// frameRef names one frame of one channel.
type frameRef struct {
	id  channelID
	seq uint64
}

// unknownChannelError refuses a frame for a channel this peer does not
// hold (it restarted, logged out, or let the channel lapse): not an
// attack, and answered with a refusal rather than an alert.
type unknownChannelError struct{ frame frameRef }

func (e *unknownChannelError) Error() string {
	return fmt.Sprintf("core: no channel %x for frame %d", e.frame.id[:4], e.frame.seq)
}

// channelPart is what an Opened carries for session channels.
type channelPart struct {
	hs      *handshake  // the offer a signed header carries
	resends *frameRef   // the refused frame whose message a signed header says it sends again
	via     *inChannel  // ModeChannel: the channel whose key opened the frame
	refusal frameRef    // ModeRefusal: the frame refused
	accept  *acceptWire // ModeAccept: the accept, where it lies in the delivered wire
}

// noChannelPart is the part of every wire that has nothing to do with
// channels. It is only ever read.
var noChannelPart channelPart

// handshake is the offer a signed header carries to agree on a channel.
type handshake struct {
	id    channelID
	share []byte // the initiator's ephemeral X25519 share
}

// acceptWire is an accept: ModeAccept ‖ Channel ‖ E_R ‖ tag.
type acceptWire [acceptSize]byte

func (a *acceptWire) id() channelID { return channelID(a[1 : 1+channelIDSize]) }
func (a *acceptWire) share() []byte { return a[1+channelIDSize : acceptSize-acceptTagSize] }
func (a *acceptWire) tag() []byte   { return a[acceptSize-acceptTagSize:] }

// appendAccept writes the accept of channel id, carrying the responder's
// ephemeral share and the tag derived beside the channel's key.
func appendAccept(dst []byte, id channelID, share []byte, tag *[acceptTagSize]byte) []byte {
	dst = append(append(append(dst, byte(ModeAccept)), id[:]...), share...)
	return append(dst, tag[:]...)
}

// channelEnds is what a channel's key is derived from beside the two
// X25519 outputs: both peers, both certified keys, the group, both
// ephemeral shares and the agreement key the responder's credential
// certifies.
type channelEnds struct {
	initiator, responder           keys.PeerID
	initiatorFP, responderFP       [32]byte
	group                          string
	initiatorShare, responderShare []byte
	responderStatic                [keys.ShareSize]byte
}

// agreer is an X25519 private key: an ephemeral one, or a key pair's
// agreement key.
type agreer interface {
	Agree(peerShare []byte) ([]byte, error)
}

// channelKeys derives a channel's AEAD, and the tag of the accept that
// completes it, from two X25519 outputs: a with aPeer, the two ephemerals,
// then b with bPeer, the initiator's ephemeral with the responder's
// certified key — each end computes them from its own side. HKDF with the
// channel ID as salt and the ends as info yields the frame key and, beside
// it, the confirmation key the tag is an HMAC under, over the accept's
// bytes in front of it; two peers that disagree on any of it derive
// different keys and tags.
func channelKeys(id channelID, e *channelEnds, a agreer, aPeer []byte, b agreer, bPeer []byte) (aead cipher.AEAD, tag [acceptTagSize]byte, err error) {
	ee, err := a.Agree(aPeer)
	if err != nil {
		return nil, tag, err
	}
	es, err := b.Agree(bPeer)
	if err != nil {
		return nil, tag, err
	}
	secret := append(ee, es...)
	clear(es)
	info := make([]byte, 0, 384)
	info = append(info, channelKeyLabel...)
	info = keys.AppendSection(info, []byte(e.initiator))
	info = keys.AppendSection(info, []byte(e.responder))
	info = append(append(info, e.initiatorFP[:]...), e.responderFP[:]...)
	info = keys.AppendSection(info, []byte(e.group))
	info = append(append(info, e.initiatorShare...), e.responderShare...)
	info = append(info, e.responderStatic[:]...)
	var okm [64]byte
	keys.HKDF(okm[:], secret, id[:], info)
	clear(secret)
	mac := hmac.New(sha256.New, okm[32:])
	mac.Write([]byte{byte(ModeAccept)})
	mac.Write(id[:])
	mac.Write(e.responderShare)
	copy(tag[:], mac.Sum(nil))
	aead, err = keys.NewAEAD(okm[:32])
	clear(okm[:])
	return aead, tag, err
}

// answer is the responder's half of the key schedule, for the offer of
// channel id whose ends name own's peer as the responder (the initiator's
// share set): a fresh ephemeral, the inbound channel's AEAD, and the
// accept to send back. The ephemeral is dropped on return.
func answer(own *keys.KeyPair, id channelID, ends channelEnds) (aead cipher.AEAD, accept acceptWire, err error) {
	eph, err := keys.NewAgreementKey()
	if err != nil {
		return nil, accept, err
	}
	ends.responderShare = eph.Share()
	aead, tag, err := channelKeys(id, &ends, eph, ends.initiatorShare, own, ends.initiatorShare)
	if err != nil {
		return nil, accept, err
	}
	appendAccept(accept[:0], id, ends.responderShare, &tag)
	return aead, accept, nil
}

// frameNonce is the AEAD nonce of frame seq: a channel's key seals each
// sequence number once, in one direction.
func frameNonce(seq uint64) (n [keys.AEADNonceSize]byte) {
	binary.BigEndian.PutUint64(n[keys.AEADNonceSize-8:], seq)
	return n
}

// frameSize is the length of the frame that carries a body of n bytes.
func frameSize(n int) int { return framePrefix + frameTimeSize + n + keys.AEADOverhead }

// sealFrame appends one frame to dst, frameSize(len(body)) bytes: prefix,
// then the sender's time now and the body, encrypted where they lie —
// in dst's own memory when it has the capacity, the endpoint frame a send
// seals into. body is only read.
func sealFrame(dst []byte, aead cipher.AEAD, frame frameRef, body []byte, now time.Time) []byte {
	start := len(dst)
	wire := appendFrameRef(dst, ModeChannel, frame)
	wire = binary.BigEndian.AppendUint64(wire, uint64(now.UnixNano()))
	wire = append(wire, body...)
	nonce := frameNonce(frame.seq)
	ct := start + framePrefix
	return aead.Seal(wire[:ct], nonce[:], wire[ct:], wire[start:ct])
}

// parseFrame cuts a frame or a refusal (everything behind the mode byte)
// into its reference and what follows: a frame's ciphertext.
func parseFrame(payload []byte) (frame frameRef, ct []byte, ok bool) {
	if len(payload) < framePrefix-1 {
		return frame, nil, false
	}
	return frameRef{channelID(payload[:channelIDSize]), binary.BigEndian.Uint64(payload[channelIDSize:])}, payload[framePrefix-1:], true
}

// appendFrameRef writes the prefix of a frame, or a whole refusal — the
// unsigned answer to a frame this peer cannot open.
func appendFrameRef(dst []byte, mode Mode, frame frameRef) []byte {
	dst = append(append(dst, byte(mode)), frame.id[:]...)
	return binary.BigEndian.AppendUint64(dst, frame.seq)
}

// outChannel is the initiator's end: an offer waiting for its accept
// (eph set), then the established channel (aead set).
type outChannel struct {
	id channelID
	// route is secure.go's way to the peer (its verified pipe
	// advertisement), kept here so a frame needs no lookup.
	route any
	// dies is the latest the channel to come may be used, fixed when the
	// offer was made: its lifetime from then, and both credential chains.
	dies time.Time

	// The offer's ephemeral key, and what the key is derived from beside
	// it, the responder's ephemeral share excepted: kept until the accept.
	eph  *keys.AgreementKey
	ends *channelEnds

	aead cipher.AEAD
	seq  uint64
	// last is the text of frame seq: a reference to the caller's string,
	// kept so that the one message a refusal can name is sent again.
	last string
}

// inChannel is the responder's end.
type inChannel struct {
	id   channelID
	pair pairKey
	user string // the initiator credential's subject name
	aead cipher.AEAD

	// accept is the accept as sent, kept to answer a repeated offer without
	// a second key agreement; answered and sent space those answers.
	accept   acceptWire
	answered time.Time
	sent     time.Time

	// The sliding window over sequence numbers: top is the highest
	// admitted, seen the admitted ones among (top-seqWindow, top].
	top  uint64
	seen [seqWindow / 64]uint64

	// opened is what every frame opened on this channel carries (via = the
	// channel itself; set by install), so that a frame allocates none.
	opened channelPart
}

func (c *inChannel) has(seq uint64) bool {
	return seq <= c.top && c.top-seq < seqWindow && c.seen[seq%seqWindow/64]&(1<<(seq%64)) != 0
}

// admit records seq, once: false for a number already admitted, one that
// has fallen out of the window, or one no sender may use.
func (c *inChannel) admit(seq uint64) bool {
	switch {
	case seq == 0 || seq > channelBudget:
		return false
	case seq > c.top:
		if seq-c.top >= seqWindow {
			c.seen = [seqWindow / 64]uint64{}
		} else {
			for s := c.top + 1; s < seq; s++ {
				c.seen[s%seqWindow/64] &^= 1 << (s % 64)
			}
		}
		c.top = seq
	case c.top-seq >= seqWindow || c.has(seq):
		return false
	}
	c.seen[seq%seqWindow/64] |= 1 << (seq % 64)
	return true
}

// channelTable is one client's channels, both directions. Nothing in it
// is allocated until the client makes or receives its first offer: the
// zero windows and the nil map answer every lookup with "none", and ready
// comes before every insert. It has no clock: whatever expires is judged
// at the now its client hands in. The counters are read by the telemetry
// collectors.
type channelTable struct {
	mu  sync.Mutex
	out lru.Window[pairKey, *outChannel]
	in  lru.Window[pairKey, *inChannel]
	// byID finds a frame's channel. It may briefly hold a channel the
	// window has dropped; inbound checks, and install sweeps.
	byID map[channelID]*inChannel
	// refusals holds, for a second each, the channels a refusal was sent for.
	refusals lru.Window[channelID, struct{}]

	established  atomic.Uint64
	fallbacks    atomic.Uint64
	refusalsSent atomic.Uint64
}

// ready allocates the tables on first use (byID set says they are).
func (t *channelTable) ready() {
	if t.byID != nil {
		return
	}
	t.out = lru.NewWindow[pairKey, *outChannel](channelTableCap)
	t.in = lru.NewWindow[pairKey, *inChannel](channelTableCap)
	t.byID = make(map[channelID]*inChannel)
	t.refusals = lru.NewWindow[channelID, struct{}](refusalTableCap)
}

// open counts the channels held in either direction, unanswered offers
// included.
func (t *channelTable) open() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.out.Len() + t.in.Len()
}

// reset drops every channel and offer: Logout and Close. The AEADs and
// ephemeral keys become unreachable; Go gives no way to wipe them.
func (t *channelTable) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byID = nil
	t.out, t.in = lru.Window[pairKey, *outChannel]{}, lru.Window[pairKey, *inChannel]{}
}

// --- initiator ---

// claimFrame takes the next sequence number of the established channel to
// pair, if there is one with budget left, for a frame carrying text.
func (t *channelTable) claimFrame(pair pairKey, text string, now time.Time) (frame frameRef, aead cipher.AEAD, route any, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.out.Get(pair, now)
	if !ok || c.aead == nil {
		return frame, nil, nil, false
	}
	if c.seq >= channelBudget {
		t.out.Delete(pair)
		return frame, nil, nil, false
	}
	c.seq++
	c.last = text
	return frameRef{c.id, c.seq}, c.aead, c.route, true
}

// offer returns the offer to put on an envelope to pair, its channel ID
// and the initiator's share: the pending one, or a new one when there is
// none, whose key will be derived between ends (offer adds the initiator's
// share). notAfter is the earliest expiry of the two credential chains. It
// returns nil once the channel is established (an envelope racing the
// accept needs no offer), and when the credentials have too little time
// left for a channel to be of any use.
func (t *channelTable) offer(pair pairKey, route any, ends channelEnds, notAfter, now time.Time) (id, share []byte, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ready()
	c, ok := t.out.Get(pair, now)
	if ok && c.aead != nil && c.seq < channelBudget || !notAfter.Add(-channelSkew).After(now) {
		return nil, nil, nil
	}
	if !ok || c.aead != nil {
		if id, err = keys.RandomBytes(channelIDSize); err != nil {
			return nil, nil, err
		}
		eph, err := keys.NewAgreementKey()
		if err != nil {
			return nil, nil, err
		}
		ends.initiatorShare = eph.Share()
		// The responder's lifetime starts when it answers, after this: the
		// initiator, retiring the channel channelSkew sooner, never outlives it.
		dies := now.Add(channelLifetime)
		if notAfter.Before(dies) {
			dies = notAfter
		}
		c = &outChannel{id: channelID(id), route: route, dies: dies.Add(-channelSkew), eph: eph, ends: &ends}
		t.out.Put(pair, c, now.Add(offerLifetime), now)
	}
	return c.id[:], c.ends.initiatorShare, nil
}

// Outcomes of an accept, as the initiator sees it.
const (
	acceptEstablished = iota
	acceptIgnored     // it answers a channel already up (a re-sent accept) or no offer pending
	acceptInvalid     // it names a pending offer and does not match it
)

// accepted completes the pending offer to pair with a, if a names it and
// carries the tag that the offer's key schedule derives with a's share.
func (t *channelTable) accepted(pair pairKey, a *acceptWire, now time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.out.Get(pair, now)
	if !ok || c.id != a.id() || c.aead != nil {
		return acceptIgnored
	}
	if !c.dies.After(now) {
		return acceptIgnored // too late to be of use: the next envelope makes a new offer
	}
	// The initiator's half of the key schedule, with a's share.
	ends := *c.ends
	ends.responderShare = a.share()
	aead, tag, err := channelKeys(c.id, &ends, c.eph, a.share(), c.eph, ends.responderStatic[:])
	if err != nil || !keys.ConstantTimeEqual(tag[:], a.tag()) {
		return acceptInvalid
	}
	c.aead, c.eph, c.ends = aead, nil, nil
	t.out.Put(pair, c, c.dies, now)
	t.established.Add(1)
	return acceptEstablished
}

// refused handles a refusal claiming to come from pair. The channel it
// names, if it is this peer's channel to pair, is dropped; and if the
// frame it names is the last one sent, resend is that frame's text.
func (t *channelTable) refused(pair pairKey, frame frameRef, now time.Time) (text string, resend, dropped bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.out.Get(pair, now)
	if !ok || c.id != frame.id || c.aead == nil {
		return "", false, false
	}
	t.out.Delete(pair)
	return c.last, c.seq > 0 && c.seq == frame.seq, true
}

// --- responder ---

// inbound finds the live channel a frame names.
func (t *channelTable) inbound(id channelID, now time.Time) *inChannel {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.liveInbound(id, now)
}

// liveInbound is inbound under the lock: byID's channel, if the window
// still holds it.
func (t *channelTable) liveInbound(id channelID, now time.Time) *inChannel {
	c := t.byID[id]
	if c == nil {
		return nil
	}
	if cur, ok := t.in.Get(c.pair, now); !ok || cur != c {
		delete(t.byID, id)
		return nil
	}
	return c
}

func (t *channelTable) admit(c *inChannel, seq uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return c.admit(seq)
}

// alreadyOpened is asked about an envelope that re-sends the message of a
// refused frame: true when this peer holds that channel from pair and
// has opened the frame — the refusal was not this peer's, and the message
// must not be delivered twice. Otherwise the frame is marked as opened,
// so that it is refused should it still arrive.
func (t *channelTable) alreadyOpened(pair pairKey, frame frameRef, now time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.liveInbound(frame.id, now)
	return c != nil && c.pair == pair && !c.admit(frame.seq)
}

// offered decides what an authenticated offer from pair calls for: the
// cached accept to send again (a repeated offer, and the last answer is
// old enough), a new accept, or nothing. notAfter is the earliest expiry
// of the two credential chains: no channel is agreed past it.
func (t *channelTable) offered(pair pairKey, id channelID, notAfter, now time.Time) (resend []byte, accept bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ready()
	c, ok := t.in.Get(pair, now)
	switch {
	case !ok:
		return nil, notAfter.After(now)
	case c.id == id:
		if now.Sub(c.sent) < handshakeEvery {
			return nil, false
		}
		c.sent = now
		return c.accept[:], false
	default:
		return nil, notAfter.After(now) && now.Sub(c.answered) >= handshakeEvery
	}
}

// install stores an accepted channel in place of whatever its pair held
// before, until its lifetime is over or, sooner, notAfter: the earliest
// expiry of the two credential chains.
func (t *channelTable) install(c *inChannel, notAfter, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ready()
	c.answered, c.sent = now, now
	c.opened.via = c
	dies := now.Add(channelLifetime)
	if notAfter.Before(dies) {
		dies = notAfter
	}
	if old, ok := t.in.Get(c.pair, now); ok {
		delete(t.byID, old.id)
	}
	t.in.Put(c.pair, c, dies, now)
	t.byID[c.id] = c
	if len(t.byID) > t.in.Len() {
		// The window expired or evicted channels on its own: forget them.
		for id, c := range t.byID {
			if cur, ok := t.in.Get(c.pair, now); !ok || cur != c {
				delete(t.byID, id)
			}
		}
	}
	t.established.Add(1)
}

// mayRefuse reports whether a refusal for id is due: none was sent in the
// last second.
func (t *channelTable) mayRefuse(id channelID, now time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ready()
	if _, recent := t.refusals.Get(id, now); recent {
		return false
	}
	t.refusals.Put(id, struct{}{}, now.Add(handshakeEvery), now)
	t.refusalsSent.Add(1)
	return true
}
