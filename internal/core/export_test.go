package core

import (
	"bytes"
	"crypto/cipher"
	"time"

	"jxtaoverlay/internal/keys"
)

// The session channel this package's open-path tests and the external
// package's fuzz target send frames on: established, as far as the open
// path can tell, by "urn:jxta:sender" for group "g".
var (
	tableChannelID  = channelID{0xc4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	tableChannelKey = bytes.Repeat([]byte{0x5c}, 32)
)

func tableAEAD() cipher.AEAD {
	aead, err := keys.NewAEAD(tableChannelKey)
	if err != nil {
		panic(err)
	}
	return aead
}

// holdTableChannel installs that channel, inbound, in t.
func holdTableChannel(t *channelTable) {
	t.install(&inChannel{id: tableChannelID, pair: pairKey{"urn:jxta:sender", "g"}, user: "sender", aead: tableAEAD()}, time.Now().Add(time.Hour), time.Now())
}

// tableChannels is a fresh table holding that channel and nothing else:
// every open gets its own, so that a frame opens again.
func tableChannels() *channelTable {
	t := &channelTable{}
	holdTableChannel(t)
	return t
}

// OpenAnyForm runs the open pipeline accepting every wire form — what
// a group pipe's receiver hands it, minus the group label and the
// guard, with the table channel as the one channel held — for the
// external test package's fuzz target.
func OpenAnyForm(own *keys.KeyPair, wire []byte) (*Opened, error) {
	o, err := openWire(own, bytes.Clone(wire), formEnvelope|formSlice|formChannel, nil, nil, tableChannels(), time.Now())
	if err != nil {
		return nil, err
	}
	return o, nil
}

// SealRoundUnder seals a round under the round key eph, as a client
// holding that key seals every round of its lifetime.
func SealRoundUnder(eph *keys.AgreementKey, signer *keys.KeyPair, sender keys.PeerID, group string, body []byte, recipients []*keys.PublicKey) (*DetachedRound, error) {
	return sealRound(signer, sender, group, body, recipients, eph, time.Now())
}

// TableChannelWires returns one valid wire of each form a session channel
// adds: a frame of the table channel carrying body, an accept naming it,
// and a refusal.
func TableChannelWires(body []byte) (frame, accept, refusal []byte) {
	frame = sealFrame(nil, tableAEAD(), frameRef{tableChannelID, 1}, body, time.Now())
	accept = appendAccept(nil, tableChannelID, bytes.Repeat([]byte{9}, keys.ShareSize), &[acceptTagSize]byte{0xac})
	return frame, accept, appendFrameRef(nil, ModeRefusal, frameRef{tableChannelID, 7})
}

// ChannelTo reports whether s holds an established channel to peer for
// group.
func ChannelTo(s *SecureClient, peer keys.PeerID, group string) bool {
	s.chans.mu.Lock()
	defer s.chans.mu.Unlock()
	c, ok := s.chans.out.Get(pairKey{peer, group}, s.Now())
	return ok && c.aead != nil
}

// InboundChannels counts the channels s holds as a responder.
func InboundChannels(s *SecureClient) int {
	s.chans.mu.Lock()
	defer s.chans.mu.Unlock()
	return s.chans.in.Len()
}

// DeriveChannel runs the responder's half of the key schedule — its
// ephemeral eph, its key pair own, the initiator's share — for the
// external package's check that the attack suite's hand-written mirror of
// it and of the frame layout (attack.ChannelKey, attack.ForgeFrame,
// attack.Accept) is a faithful one: it returns the accept the responder
// would send and opens wire on the inbound channel that results.
func DeriveChannel(eph *keys.AgreementKey, own *keys.KeyPair, id [16]byte, initiator, responder keys.PeerID, initiatorKey *keys.PublicKey, group string, initiatorShare, wire []byte) (accept []byte, o *Opened, err error) {
	e := channelEnds{initiator: initiator, responder: responder, group: group, initiatorShare: initiatorShare, responderShare: eph.Share()}
	if e.initiatorFP, err = initiatorKey.Fingerprint(); err != nil {
		return nil, nil, err
	}
	if e.responderFP, err = own.Public().Fingerprint(); err != nil {
		return nil, nil, err
	}
	e.responderStatic, _ = own.Public().AgreementShare()
	aead, tag, err := channelKeys(id, &e, eph, initiatorShare, own, initiatorShare)
	if err != nil {
		return nil, nil, err
	}
	t := &channelTable{}
	t.install(&inChannel{id: id, pair: pairKey{initiator, group}, aead: aead}, time.Now().Add(time.Hour), time.Now())
	o, err = openWire(nil, bytes.Clone(wire), formChannel, nil, nil, t, time.Now())
	return appendAccept(nil, id, e.responderShare, &tag), o, err
}

// HeaderFields is a header as this package's codec reads and writes it,
// for the external package's check that the attack suite's hand-written
// mirror of the layout (attack.Header, attack.ReadHeader) is a faithful
// one.
type HeaderFields struct {
	Kind                                                  Mode
	Sender                                                keys.PeerID
	Group                                                 string
	At                                                    int64
	Digest, To, Nonce, Root, Channel, Share, Resends, Sig []byte
}

// ParseHeader is parseHeader.
func ParseHeader(block []byte) (f HeaderFields, body []byte, ok bool) {
	h, body, ok := parseHeader(block)
	return HeaderFields{h.kind, h.sender, h.group, h.at, h.digest, h.to, h.nonce, h.root, h.channel, h.share, h.resends, h.sig}, body, ok
}

// AppendHeader is appendHeader into a new buffer.
func AppendHeader(f HeaderFields, signer *keys.KeyPair) ([]byte, error) {
	return appendHeader(nil, &header{f.Kind, f.Sender, f.Group, f.At, f.Digest, f.To, f.Nonce, f.Root, f.Channel, f.Share, f.Resends, f.Sig}, signer)
}
