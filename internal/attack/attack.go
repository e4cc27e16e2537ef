// Package attack implements the adversaries the paper's security
// analysis considers (§2.3): passive eavesdroppers on the wire,
// advertisement forgers, login replayers, and fake brokers reached via
// redirected traffic (the DNS-spoofing scenario).
//
// The package is a test harness, not an exploit kit: each adversary
// exercises one documented JXTA-Overlay vulnerability so the test suite
// can demonstrate that the original primitives are vulnerable and the
// secure primitives resist.
package attack

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/control"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/xmldoc"
)

// Eavesdropper passively records every frame on the fabric — the "data
// may be easily eavesdropped" threat.
type Eavesdropper struct {
	mu     sync.Mutex
	frames []simnet.Packet
}

// NewEavesdropper taps the network.
func NewEavesdropper(net *simnet.Network) *Eavesdropper {
	e := &Eavesdropper{}
	net.AddTap(func(p simnet.Packet) {
		p.Payload = append([]byte(nil), p.Payload...) // a tap copies what it keeps
		e.mu.Lock()
		e.frames = append(e.frames, p)
		e.mu.Unlock()
	})
	return e
}

// SawString reports whether the needle appeared in any captured frame —
// e.g. a password crossing the wire in the clear.
func (e *Eavesdropper) SawString(needle string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := []byte(needle)
	for _, f := range e.frames {
		if bytes.Contains(f.Payload, n) {
			return true
		}
	}
	return false
}

// FramesTo returns copies of every frame addressed to the given node, in
// capture order — the raw material for replay attacks.
func (e *Eavesdropper) FramesTo(to simnet.NodeID) [][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out [][]byte
	for _, f := range e.frames {
		if f.To == to {
			out = append(out, append([]byte(nil), f.Payload...))
		}
	}
	return out
}

// FrameCount reports how many frames were captured.
func (e *Eavesdropper) FrameCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.frames)
}

// RawNode is an attacker-controlled attachment point that can inject
// arbitrary frames — including verbatim replays of captured traffic.
type RawNode struct {
	id  simnet.NodeID
	net *simnet.Network

	mu       sync.Mutex
	received [][]byte
}

// NewRawNode attaches an attacker node to the fabric.
func NewRawNode(net *simnet.Network, id simnet.NodeID) (*RawNode, error) {
	r := &RawNode{id: id, net: net}
	if err := net.Attach(id, func(p simnet.Packet) {
		r.mu.Lock()
		r.received = append(r.received, append([]byte(nil), p.Payload...))
		r.mu.Unlock()
	}); err != nil {
		return nil, err
	}
	return r, nil
}

// Replay injects a previously captured frame verbatim. The fabric
// delivers the buffer it is handed, which its recipient then owns and may
// open in place; Replay hands it a copy, so that one capture replays any
// number of times.
func (r *RawNode) Replay(to simnet.NodeID, frame []byte) error {
	return r.net.Send(r.id, to, bytes.Clone(frame))
}

// Received returns the frames delivered to the attacker node.
func (r *RawNode) Received() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]byte, len(r.received))
	copy(out, r.received)
	return out
}

// ForgePipeAdv fabricates a pipe advertisement that claims to be the
// victim's group input pipe but directs traffic to the attacker — the
// man-in-the-middle redirect enabled by unverified advertisements.
func ForgePipeAdv(victim keys.PeerID, attackerPipe string, attacker keys.PeerID, group string) *xmldoc.Element {
	forged := &advert.Pipe{
		PipeID:   attackerPipe,
		PipeType: advert.PipeUnicast,
		Name:     "msg/" + group + "/" + string(victim), // looks legitimate
		PeerID:   attacker,                              // ...but lands at the attacker
		Group:    group,
	}
	doc, err := forged.Document()
	if err != nil {
		panic(err) // all fields are set; cannot fail
	}
	return doc
}

// ForgePresence fabricates a presence advertisement for an arbitrary
// peer — the "any legitimate user may forge advertisements" threat.
func ForgePresence(victim keys.PeerID, name, group, status string) *xmldoc.Element {
	p := &advert.Presence{PeerID: victim, Name: name, Group: group, Status: status, Seen: time.Now()}
	doc, err := p.Document()
	if err != nil {
		panic(err)
	}
	return doc
}

// SpoofedPipeMessage fabricates a raw endpoint frame that delivers a
// text message on the victim's group pipe with a forged source in its
// routing prefix — the "no source authenticity" threat. It is built by
// the endpoint's own frame builder, so it is byte for byte what a sender
// of that name would put on the wire.
func SpoofedPipeMessage(claimedFrom keys.PeerID, pipeID, group, body string) []byte {
	return spoofedPipeFrame(claimedFrom, pipeID, group, proto.ElemBody, []byte(body))
}

// SpoofedPipeEnvelope is SpoofedPipeMessage for a secure wire: the frame
// SecureMsgPeer puts on a pipe, with a source of the attacker's choosing.
// What the wire proves about its sender is the secure primitives' to say.
func SpoofedPipeEnvelope(claimedFrom, to keys.PeerID, group string, wire []byte) []byte {
	return spoofedPipeFrame(claimedFrom, advert.GroupPipeID(to, group), group, proto.ElemEnvelope, wire)
}

// SpoofedSlicePush fabricates the broker relay's push of one slice
// (proto.OpSliceDeliver to the client service), with any secure wire and
// any claimed origin: the client service takes pushes from whoever sends
// them.
func SpoofedSlicePush(claimedFrom keys.PeerID, group string, wire []byte) []byte {
	return endpoint.NewFrame(endpoint.Route{Src: claimedFrom, Service: proto.ClientService},
		endpoint.Element{Name: proto.ElemOp, Data: []byte(proto.OpSliceDeliver)},
		endpoint.Element{Name: proto.ElemGroup, Data: []byte(group)},
		endpoint.Element{Name: proto.ElemPeer, Data: []byte(claimedFrom)},
		endpoint.Element{Name: proto.ElemEnvelope, Data: wire})
}

// spoofedPipeFrame is a frame to pipeID's service with one payload
// element and the group label, as a pipe sender writes them.
func spoofedPipeFrame(claimedFrom keys.PeerID, pipeID, group, elem string, payload []byte) []byte {
	return endpoint.NewFrame(endpoint.Route{Src: claimedFrom, Service: control.PipeService, Param: pipeID},
		endpoint.Element{Name: elem, Data: payload},
		endpoint.Element{Name: proto.ElemGroup, Data: []byte(group)})
}

// ForgeSlice acts as a malicious relay colluding with a round insider:
// the insider legitimately opened its cut of the round and hands the
// relay the validly signed header (core.Opened.Header) plus the
// plaintext; the relay re-encrypts them under a fresh content key
// wrapped to an arbitrary target — including peers the sender never
// addressed — under an ephemeral key of its own, and cuts a
// single-recipient ModeSlice wire for it. The layout mirrors core's slice
// wire exactly; what the pair cannot mint is a header whose signed
// slice tree root covers the new leaf, which is precisely the binding
// OpenSlice enforces.
func ForgeSlice(header, body []byte, target *keys.PublicKey) ([]byte, error) {
	cek, err := keys.NewContentKey()
	if err != nil {
		return nil, err
	}
	nonce, ct, err := keys.AEADSeal(cek, Block(header, body))
	if err != nil {
		return nil, err
	}
	eph, err := keys.NewAgreementKey()
	if err != nil {
		return nil, err
	}
	fp, err := target.Fingerprint()
	if err != nil {
		return nil, err
	}
	wire := []byte{byte(core.ModeSlice)}
	wire = binary.BigEndian.AppendUint32(wire, 1) // recipient count
	wire = binary.BigEndian.AppendUint32(wire, 0) // leaf index
	wire = append(append(wire, eph.Share()...), fp[:]...)
	if wire, err = eph.WrapTo(wire, cek, target, nonce); err != nil {
		return nil, err
	}
	wire = append(wire, 0) // empty proof: for n=1 the leaf IS the root
	return append(append(wire, nonce...), ct...), nil
}

// ResealSlice acts as a round member turned against another member: it
// unwraps the round's content key from its own slice (ownSlice, which own
// opens), decrypts the signed header and body, and seals them again under
// that same key with a fresh GCM nonce — behind the victim's own leaf
// (ephemeral share, fingerprint, wrap, inclusion proof), cut from
// victimSlice. The leaf would still reach the signed SliceRoot and the
// signature still verify, but the victim's wrap is bound to the nonce the
// sender sealed under: under the new one it unwraps nothing.
func ResealSlice(own *keys.KeyPair, ownSlice, victimSlice []byte) ([]byte, error) {
	cek, block, err := openOwnSlice(own, ownSlice)
	if err != nil {
		return nil, err
	}
	leaf, err := CutSlice(victimSlice)
	if err != nil {
		return nil, err
	}
	nonce, ct, err := keys.AEADSeal(cek[:], block)
	if err != nil {
		return nil, err
	}
	return append(append(bytes.Clone(leaf.Head), nonce...), ct...), nil
}

// SpliceSlice acts as a round member that puts a block of its choosing —
// another signed header and its body — behind another member's leaf,
// under the round's content key and the very nonce the sender sealed
// under, so that the victim's wrap still unwraps and the block decrypts:
// what is left to refuse it is the header itself.
func SpliceSlice(own *keys.KeyPair, ownSlice, victimSlice, block []byte) ([]byte, error) {
	cek, _, err := openOwnSlice(own, ownSlice)
	if err != nil {
		return nil, err
	}
	leaf, err := CutSlice(victimSlice)
	if err != nil {
		return nil, err
	}
	wire := append(append(bytes.Clone(leaf.Head), leaf.Nonce()...), block...)
	return keys.AEADSealInPlace(cek[:], leaf.Nonce(), wire, len(leaf.Head)+keys.AEADNonceSize)
}

// RewrapSlice acts as a round member that hands another member the round
// key itself: it unwraps the content key from its own slice and wraps it
// to victim under an ephemeral key of its own, bound to the round's nonce,
// behind the victim's index, fingerprint and inclusion proof and in front
// of the round's untouched ciphertext. The victim's new wrap opens, and
// the ciphertext under it is the sender's; the leaf — which commits to the
// ephemeral share and the wrap — no longer reaches the signed SliceRoot.
func RewrapSlice(own *keys.KeyPair, ownSlice, victimSlice []byte, victim *keys.PublicKey) ([]byte, error) {
	cek, _, err := openOwnSlice(own, ownSlice)
	if err != nil {
		return nil, err
	}
	leaf, err := CutSlice(victimSlice)
	if err != nil {
		return nil, err
	}
	eph, err := keys.NewAgreementKey()
	if err != nil {
		return nil, err
	}
	wrap, err := eph.WrapTo(nil, cek[:], victim, leaf.Nonce())
	if err != nil {
		return nil, err
	}
	wire := bytes.Clone(leaf.Head)
	copy(wire[sliceEph:], eph.Share())
	copy(wire[sliceWrap:], wrap)
	return append(wire, leaf.Sealed...), nil
}

// openOwnSlice is a member's view of its own slice: the round's content
// key, and the block it opens.
func openOwnSlice(own *keys.KeyPair, wire []byte) (cek [keys.ContentKeySize]byte, block []byte, err error) {
	leaf, err := CutSlice(wire)
	if err != nil {
		return cek, nil, err
	}
	if cek, err = own.UnwrapFrom(leaf.Ephemeral(), leaf.Wrap(), leaf.Nonce()); err != nil {
		return cek, nil, err
	}
	block, err = keys.AEADOpen(cek[:], leaf.Nonce(), leaf.Sealed[keys.AEADNonceSize:])
	return cek, block, err
}

// The offsets of a ModeSlice wire's fixed-size head, in core's layout:
// mode byte, recipient count, leaf index, ephemeral share, fingerprint,
// wrap, proof length.
const (
	sliceEph   = 1 + 4 + 4
	sliceFP    = sliceEph + keys.ShareSize
	sliceWrap  = sliceFP + 32
	sliceProof = sliceWrap + keys.WrapSize
)

// SliceLeaf is a ModeSlice wire cut where its leaf ends.
type SliceLeaf struct {
	// Head is everything before the GCM nonce: the leaf and its proof.
	Head []byte
	// Sealed is the 12-byte GCM nonce and the ciphertext.
	Sealed []byte
}

// Nonce is the round's GCM nonce, as the slice carries it.
func (l SliceLeaf) Nonce() []byte { return l.Sealed[:keys.AEADNonceSize] }

// Ephemeral is the round's ephemeral share, as the slice carries it.
func (l SliceLeaf) Ephemeral() []byte { return l.Head[sliceEph:sliceFP] }

// Wrap is the recipient's wrap.
func (l SliceLeaf) Wrap() []byte { return l.Head[sliceWrap:sliceProof] }

// Fingerprint is the recipient's key fingerprint.
func (l SliceLeaf) Fingerprint() []byte { return l.Head[sliceFP:sliceWrap] }

// CutSlice splits a ModeSlice wire where its proof ends. The parts are
// views of wire.
func CutSlice(wire []byte) (SliceLeaf, error) {
	if len(wire) <= sliceProof || core.Mode(wire[0]) != core.ModeSlice {
		return SliceLeaf{}, core.ErrEnvelope
	}
	end := sliceProof + 1 + 32*int(wire[sliceProof])
	if len(wire) < end+keys.AEADNonceSize {
		return SliceLeaf{}, core.ErrEnvelope
	}
	return SliceLeaf{Head: wire[:end:end], Sealed: wire[end:]}, nil
}

// ForwardEnvelope acts as a malicious recipient of a sign-then-encrypt
// envelope: it opens the envelope with its own key, which it may, and
// seals the block it finds — the sender's signed header and the body,
// untouched — to another peer's agreement key, under a fresh key of its
// own: a wrap as sound as the sender's. Whether the target takes the result
// for a message the sender sent it is decided by what the signed header
// says about its recipient.
func ForwardEnvelope(own *keys.KeyPair, wire []byte, target *keys.PublicKey) ([]byte, error) {
	env, err := keys.ParseEnvelope(wire[1:])
	if err != nil {
		return nil, err
	}
	block, err := own.Decrypt(env)
	if err != nil {
		return nil, err
	}
	return EnvelopeTo(target, block)
}

// The adversaries of the signed header and of session channels
// (internal/core: header.go, channel.go) work from the helpers below,
// which mirror core's layouts by hand: a header with fields of the
// attacker's choosing, signed with whatever key the attacker holds; the
// block a header and a body make; a channel frame under a key of the
// attacker's choosing; and the key schedule, which is no secret — only
// its X25519 input is.

// headerLabel is what core signs in front of a header.
const headerLabel = "jxta-overlay/message-header/v1"

// Header is a message header in core's layout, field by field: kind ‖
// u16-length sender ‖ u16-length group ‖ i64 Unix-nano time ‖ digest[32]
// ‖ flags ‖ the optional fields the flags name, in this order — To[32],
// round Nonce[16] ‖ Root[32], offer Channel[16] ‖ Share[32], Resends[24]
// (a refused frame's channel ID ‖ u64 sequence number) — ‖ u16-length
// signature. A nil optional field is absent. The signature covers
// core's label and every byte in front of its length.
type Header struct {
	Kind      core.Mode
	Sender    keys.PeerID
	Group     string
	Time      time.Time
	Digest    []byte
	To        []byte
	Nonce     []byte
	Root      []byte
	Channel   []byte
	Share     []byte
	Resends   []byte
	Signature []byte
}

// NewHeader is what core's sealers put in every header of the given kind
// for body: sender, group, the time now and the body's digest.
func NewHeader(kind core.Mode, sender keys.PeerID, group string, body []byte) *Header {
	return &Header{Kind: kind, Sender: sender, Group: group, Time: time.Now(), Digest: keys.SHA256(body)}
}

// unsigned is the header up to its signature's length.
func (h *Header) unsigned() []byte {
	b := []byte{byte(h.Kind)}
	b = append(binary.BigEndian.AppendUint16(b, uint16(len(h.Sender))), h.Sender...)
	b = append(binary.BigEndian.AppendUint16(b, uint16(len(h.Group))), h.Group...)
	b = binary.BigEndian.AppendUint64(b, uint64(h.Time.UnixNano()))
	b = append(b, h.Digest...)
	var flags byte
	for i, f := range [][]byte{h.To, h.Nonce, h.Channel, h.Resends} {
		if f != nil {
			flags |= 1 << i
		}
	}
	b = append(b, flags)
	for _, f := range [][]byte{h.To, h.Nonce, h.Root, h.Channel, h.Share, h.Resends} {
		b = append(b, f...)
	}
	return b
}

// Sign signs h with kp as core's sealers do.
func (h *Header) Sign(kp *keys.KeyPair) error {
	sig, err := kp.Sign(append([]byte(headerLabel), h.unsigned()...))
	h.Signature = sig
	return err
}

// Bytes is the header on the wire, signature included.
func (h *Header) Bytes() []byte {
	b := binary.BigEndian.AppendUint16(h.unsigned(), uint16(len(h.Signature)))
	return append(b, h.Signature...)
}

// Block packs a header and a body the way every secure wire carries them:
// the header marks its own end.
func Block(header, body []byte) []byte {
	return append(bytes.Clone(header), body...)
}

// EnvelopeTo seals block to target's certified agreement key as a ModeFull
// wire, as core's sealer does: the envelope anyone can build around a
// block of their own making.
func EnvelopeTo(target *keys.PublicKey, block []byte) ([]byte, error) {
	env, err := target.Encrypt(block)
	if err != nil {
		return nil, err
	}
	return append([]byte{byte(core.ModeFull)}, env.Bytes()...), nil
}

// ReadHeader is the reverse, for an attacker that has a block in the
// clear — an envelope's or a slice's it holds the recipient's key to: the
// header it starts with, and the body behind it. The fields are copies.
func ReadHeader(block []byte) (*Header, []byte, error) {
	b := block
	take := func(n int) []byte {
		if b == nil || len(b) < n {
			b = nil
			return nil
		}
		v := bytes.Clone(b[:n])
		b = b[n:]
		return v
	}
	sized := func() []byte {
		if n := take(2); n != nil {
			return take(int(binary.BigEndian.Uint16(n)))
		}
		return nil
	}
	h := &Header{}
	if kind := take(1); kind != nil {
		h.Kind = core.Mode(kind[0])
	}
	h.Sender = keys.PeerID(sized())
	h.Group = string(sized())
	if at := take(8); at != nil {
		h.Time = time.Unix(0, int64(binary.BigEndian.Uint64(at)))
	}
	h.Digest = take(32)
	var flags byte
	if f := take(1); f != nil {
		flags = f[0]
	}
	if flags&1 != 0 {
		h.To = take(32)
	}
	if flags&2 != 0 {
		h.Nonce, h.Root = take(16), take(32)
	}
	if flags&4 != 0 {
		h.Channel, h.Share = take(16), take(keys.ShareSize)
	}
	if flags&8 != 0 {
		h.Resends = take(24)
	}
	h.Signature = sized()
	if b == nil || flags>>4 != 0 {
		return nil, nil, core.ErrEnvelope
	}
	return h, b, nil
}

// ForgeFrame seals body, sent at sentAt, as frame seq of a channel under
// key, in the layout of core's channel frames: mode, channel ID and
// sequence number in the clear and authenticated, then the sent-at
// (nanoseconds since the Unix epoch) and the body under the tag.
func ForgeFrame(key []byte, channel []byte, seq uint64, sentAt time.Time, body []byte) ([]byte, error) {
	aead, err := keys.NewAEAD(key)
	if err != nil {
		return nil, err
	}
	wire := append([]byte{byte(core.ModeChannel)}, channel...)
	wire = binary.BigEndian.AppendUint64(wire, seq)
	plain := append(binary.BigEndian.AppendUint64(nil, uint64(sentAt.UnixNano())), body...)
	var nonce [keys.AEADNonceSize]byte
	binary.BigEndian.PutUint64(nonce[keys.AEADNonceSize-8:], seq)
	return aead.Seal(wire, nonce[:], plain, wire), nil
}

// ChannelKey is core's channel key schedule, from whatever two X25519
// outputs the attacker could compute, concatenated in core's order
// (ephemeral–ephemeral, then the initiator's ephemeral with the agreement
// key responderKey certifies): the frame key, and the tag of the accept
// that carries responderShare.
func ChannelKey(secret, channel []byte, initiator, responder keys.PeerID, initiatorKey, responderKey *keys.PublicKey, group string, initiatorShare, responderShare []byte) (key, tag []byte, err error) {
	info := []byte("jxta-overlay/session-channel/v3")
	info = keys.AppendSection(info, []byte(initiator))
	info = keys.AppendSection(info, []byte(responder))
	for _, k := range []*keys.PublicKey{initiatorKey, responderKey} {
		fp, err := k.Fingerprint()
		if err != nil {
			return nil, nil, err
		}
		info = append(info, fp[:]...)
	}
	info = keys.AppendSection(info, []byte(group))
	info = append(append(info, initiatorShare...), responderShare...)
	static, _ := responderKey.AgreementShare()
	info = append(info, static[:]...)
	okm := make([]byte, 64)
	keys.HKDF(okm, secret, channel, info)
	mac := hmac.New(sha256.New, okm[32:])
	mac.Write(Accept(channel, responderShare, nil))
	return okm[:32], mac.Sum(nil)[:16], nil
}

// Accept builds a session channel's accept in core's layout: mode,
// channel ID and the responder's ephemeral share, then the tag.
func Accept(channel, share, tag []byte) []byte {
	return append(append(append([]byte{byte(core.ModeAccept)}, channel...), share...), tag...)
}

// NewFakeBroker stands up a broker that accepts every login — the
// credential-harvesting endpoint of the DNS-spoofing scenario. It uses
// the same well-known name as the target broker; nothing in the original
// protocol lets a client tell them apart.
func NewFakeBroker(net *simnet.Network, wellKnownName string, id keys.PeerID, harvested chan<- [2]string) (*broker.Broker, error) {
	return broker.New(broker.Config{
		Name:   wellKnownName,
		PeerID: id,
		Net:    net,
		DB: broker.AuthenticatorFunc(func(_ context.Context, user, pass string) ([]string, error) {
			select {
			case harvested <- [2]string{user, pass}:
			default:
			}
			return []string{"default"}, nil // accept everyone
		}),
	})
}
