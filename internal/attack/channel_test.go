// Session-channel negatives. A channel replaces a signature and a key
// unwrap per message with one AEAD frame under a key two peers agreed on
// once, the responder answering with an unsigned accept that its
// certified agreement key authenticates; these tests are what an
// adversary gets for trying it on: the holder of either peer's RSA key, a
// replayer, a reflector, a credentialed third member, a splicer of
// accepts, a forger of refusals, an offer flooder, a peer whose credential
// has run out.
package attack_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/telemetry"
	"jxtaoverlay/internal/waituntil"
	"jxtaoverlay/internal/xdsig"
)

// wiresTo returns the secure wires of the given mode among the frames
// eve captured on their way to a peer.
func wiresTo(eve *attack.Eavesdropper, to keys.PeerID, mode core.Mode) [][]byte {
	var out [][]byte
	for _, frame := range eve.FramesTo(simnet.NodeID(to)) {
		f, err := endpoint.ParseFrame(frame)
		if err != nil {
			continue
		}
		if wire, ok := f.Msg.Get(proto.ElemEnvelope); ok && core.Mode(wire[0]) == mode {
			out = append(out, wire)
		}
	}
	return out
}

func texts(c *events.Collector) []string {
	var out []string
	for _, e := range c.OfType(events.SecureMessage) {
		out = append(out, string(e.Data))
	}
	return out
}

func count(c *events.Collector, text string) int {
	n := 0
	for _, got := range texts(c) {
		if got == text {
			n++
		}
	}
	return n
}

// say sends text and waits until it is raised at the other end.
func say(t *testing.T, from *core.SecureClient, to keys.PeerID, got *events.Collector, text string) events.Event {
	t.Helper()
	if err := from.SecureMsgPeer(testCtx(t), to, "math", text); err != nil {
		t.Fatalf("send %q: %v", text, err)
	}
	waituntil.Must(t, 5*time.Second, func() bool { return count(got, text) > 0 }, "%q never delivered", text)
	for _, e := range got.OfType(events.SecureMessage) {
		if string(e.Data) == text {
			return e
		}
	}
	panic("unreachable")
}

// channelPair is alice and bob with a channel up from alice to bob, and
// everything that crossed the wire while it came up.
type channelPair struct {
	s          *secureStack
	alice, bob *core.SecureClient
	atBob      *events.Collector
	eve        *attack.Eavesdropper
	raw        *attack.RawNode
	reg        *telemetry.Registry
}

// newChannelPair brings the pair up on s; guarded gives each of them a
// replay guard.
func newChannelPair(t *testing.T, s *secureStack, guarded bool) *channelPair {
	t.Helper()
	p := &channelPair{s: s, reg: telemetry.New()}
	p.eve = attack.NewEavesdropper(s.net)
	opts := func() []core.Option {
		if !guarded {
			return nil
		}
		return []core.Option{core.WithReplayGuard(core.NewReplayGuard(time.Minute, 4096))}
	}
	p.alice = s.join(t, "alice", "alice-secret-pw", opts()...)
	p.bob = s.join(t, "bob", "bob-secret-pw", opts()...)
	p.alice.BindTelemetry(p.reg)
	p.bob.BindTelemetry(p.reg)
	p.atBob = events.NewCollector(p.bob.Bus())
	var err error
	if p.raw, err = attack.NewRawNode(s.net, "attacker-node"); err != nil {
		t.Fatal(err)
	}
	if e := say(t, p.alice, p.bob.PeerID(), p.atBob, "hello"); e.Attr("mode") != core.ModeFull.String() {
		t.Fatalf("first message travelled as %q", e.Attr("mode"))
	}
	p.waitUp(t)
	return p
}

// waitUp waits until alice's messages to bob travel as frames.
func (p *channelPair) waitUp(t *testing.T) {
	t.Helper()
	waituntil.Must(t, 5*time.Second, func() bool {
		text := fmt.Sprintf("probe %d", time.Now().UnixNano())
		return say(t, p.alice, p.bob.PeerID(), p.atBob, text).Attr("mode") == core.ModeChannel.String()
	}, "no channel came up")
}

// inject puts a secure wire on a peer's math pipe from the attacker's
// node, claiming to come from claimedFrom.
func (p *channelPair) inject(t *testing.T, claimedFrom, to keys.PeerID, wire []byte) {
	t.Helper()
	if err := p.raw.Replay(simnet.NodeID(to), attack.SpoofedPipeEnvelope(claimedFrom, to, "math", wire)); err != nil {
		t.Fatal(err)
	}
}

func (p *channelPair) metric(t *testing.T, name string) float64 {
	t.Helper()
	v, ok := p.reg.Get(name)
	if !ok {
		t.Fatalf("metric %s not registered", name)
	}
	return v
}

// alerts waits for n SecurityAlerts at c and returns them.
func alerts(t *testing.T, c *events.Collector, n int) []events.Event {
	t.Helper()
	waituntil.Must(t, 5*time.Second, func() bool { return len(c.OfType(events.SecurityAlert)) >= n }, "fewer than %d alerts", n)
	time.Sleep(20 * time.Millisecond)
	got := c.OfType(events.SecurityAlert)
	if len(got) != n {
		t.Fatalf("%d alerts, want %d: %v", len(got), n, got[len(got)-1].Payload)
	}
	return got
}

// handshakeOf reads the handshake the two peers exchanged out of eve's
// capture, the way the holder of bob's RSA key can: alice's offer from
// the envelope to bob, bob's accept as it crossed the wire to alice.
func handshakeOf(t *testing.T, p *channelPair) (offer *attack.Header, accept []byte) {
	t.Helper()
	for _, wire := range wiresTo(p.eve, p.bob.PeerID(), core.ModeFull) {
		env, err := keys.ParseEnvelope(wire[1:])
		if err != nil {
			t.Fatal(err)
		}
		block, err := p.bob.Identity().Keys.Decrypt(env)
		if err != nil {
			t.Fatal(err)
		}
		if h, _, err := attack.ReadHeader(block); err == nil && h.Channel != nil {
			offer = h
		}
	}
	if accepts := wiresTo(p.eve, p.alice.PeerID(), core.ModeAccept); len(accepts) > 0 {
		accept = accepts[0]
	}
	if offer == nil || len(accept) != 65 || !bytes.Equal(accept[1:17], offer.Channel) {
		t.Fatalf("handshake not on the wire: offer %v, accept %x", offer, accept)
	}
	return offer, accept
}

// (a) Key-compromise impersonation. The attacker holds bob's RSA private
// key and a full capture of the handshake: it reads the offer, knows the
// channel ID, both ephemeral shares and the key schedule, and — bob's
// agreement key being derived from his RSA key — computes bob's half,
// X25519(s_bob, E_alice). What it lacks is the ephemeral–ephemeral term,
// and bob's keys are no help in getting it: it cannot make a frame bob
// opens as alice's. (Under an RSA-transported session key it could: it
// would unwrap the key alice sent.)
func TestChannelKeyCompromiseImpersonation(t *testing.T) {
	p := newChannelPair(t, newSecureStack(t), false)
	offer, accept := handshakeOf(t, p)
	channel := offer.Channel
	aliceShare, bobShare := offer.Share, accept[17:49]
	aliceKey, bobKP := p.alice.Identity().Keys.Public(), p.bob.Identity().Keys
	staticTerm, err := bobKP.Agree(aliceShare)
	if err != nil {
		t.Fatal(err)
	}

	eph, err := keys.NewAgreementKey()
	if err != nil {
		t.Fatal(err)
	}
	agree := func(a interface{ Agree([]byte) ([]byte, error) }, share []byte) []byte {
		secret, err := a.Agree(share)
		if err != nil {
			t.Fatal(err)
		}
		return secret
	}
	body := []byte("wire the money to mallory")
	seq := uint64(500) // ahead of anything alice has sent
	guesses := map[string][]byte{
		"own share against alice's":      agree(eph, aliceShare),
		"own share against bob's":        agree(eph, bobShare),
		"bob's agreement key on his own": agree(bobKP, bobShare),
	}
	for _, ee := range guesses {
		key, _, err := attack.ChannelKey(append(ee, staticTerm...), channel, p.alice.PeerID(), p.bob.PeerID(), aliceKey, bobKP.Public(), "math", aliceShare, bobShare)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := attack.ForgeFrame(key, channel, seq, time.Now(), body)
		if err != nil {
			t.Fatal(err)
		}
		p.inject(t, p.alice.PeerID(), p.bob.PeerID(), frame)
		seq++
	}
	for _, a := range alerts(t, p.atBob, len(guesses)) {
		if !strings.Contains(a.Attr("reason"), core.ErrEnvelope.Error()) {
			t.Errorf("forged frame refused with %q, want %q", a.Attr("reason"), core.ErrEnvelope)
		}
	}
	if n := count(p.atBob, string(body)); n != 0 {
		t.Fatalf("bob raised the attacker's message %d times", n)
	}
	// The channel is none the worse for it.
	if e := say(t, p.alice, p.bob.PeerID(), p.atBob, "still here"); e.Attr("mode") != core.ModeChannel.String() {
		t.Fatalf("alice's next message travelled as %q", e.Attr("mode"))
	}
}

// (b) Replay. A captured frame delivered again is refused, with and
// without a replay guard at the recipient; so is a frame re-labelled for
// another channel, and a frame of a channel that has since been replaced.
// A replayed accept changes nothing: it names a channel already up, or one
// long replaced, and is dropped without a word, guard or none.
func TestChannelReplays(t *testing.T) {
	for _, guarded := range []bool{false, true} {
		t.Run(fmt.Sprintf("guard=%v", guarded), func(t *testing.T) {
			p := newChannelPair(t, newSecureStack(t), guarded)
			atAlice := events.NewCollector(p.alice.Bus())
			say(t, p.alice, p.bob.PeerID(), p.atBob, "pay invoice 42")
			frames := wiresTo(p.eve, p.bob.PeerID(), core.ModeChannel)
			old := frames[len(frames)-1]

			// The same frame again.
			p.inject(t, p.alice.PeerID(), p.bob.PeerID(), old)
			if a := alerts(t, p.atBob, 1)[0]; a.Attr("reason") != core.ErrMessageReplayed.Error() || a.From != p.alice.PeerID() {
				t.Fatalf("replayed frame refused as %v from %s", a.Payload, a.From)
			}

			// The accept again: alice holds the channel it answers.
			accepts := wiresTo(p.eve, p.alice.PeerID(), core.ModeAccept)
			if len(accepts) != 1 {
				t.Fatalf("%d accepts on the wire, want 1", len(accepts))
			}
			established := p.metric(t, core.ChannelEstablishedMetric)
			p.inject(t, p.bob.PeerID(), p.alice.PeerID(), accepts[0])
			say(t, p.alice, p.bob.PeerID(), p.atBob, "after the replayed accept")
			if got := p.metric(t, core.ChannelEstablishedMetric); got != established {
				t.Fatalf("a replayed accept established something: %v -> %v", established, got)
			}

			// bob loses the channel; alice's next message brings up another.
			if err := p.bob.Logout(testCtx(t)); err != nil {
				t.Fatal(err)
			}
			if err := p.bob.Join(testCtx(t), p.s.br.PeerID(), "bob-secret-pw"); err != nil {
				t.Fatal(err)
			}
			say(t, p.alice, p.bob.PeerID(), p.atBob, "after bob's logout")
			p.waitUp(t)
			frames = wiresTo(p.eve, p.bob.PeerID(), core.ModeChannel)
			current := frames[len(frames)-1]
			if string(current[1:17]) == string(old[1:17]) {
				t.Fatal("the second channel has the first one's ID")
			}

			// The old frame as it was: a channel bob no longer holds, so he opens
			// nothing (and says so at most once a second, to alice, who holds no
			// such channel either).
			p.inject(t, p.alice.PeerID(), p.bob.PeerID(), old)
			// The old frame relabelled for the new channel, at a fresh number.
			relabelled := append([]byte{old[0]}, current[1:17]...)
			relabelled = binary.BigEndian.AppendUint64(relabelled, 900)
			relabelled = append(relabelled, old[25:]...)
			p.inject(t, p.alice.PeerID(), p.bob.PeerID(), relabelled)
			if a := alerts(t, p.atBob, 2)[1]; !strings.Contains(a.Attr("reason"), core.ErrEnvelope.Error()) {
				t.Fatalf("frame replayed into another channel refused as %v", a.Payload)
			}
			// The accept of the first channel, now that a second is up.
			p.inject(t, p.bob.PeerID(), p.alice.PeerID(), accepts[0])
			if e := say(t, p.alice, p.bob.PeerID(), p.atBob, "last"); e.Attr("mode") != core.ModeChannel.String() {
				t.Fatalf("after a stale accept alice's message travelled as %q", e.Attr("mode"))
			}
			if n := count(p.atBob, "pay invoice 42"); n != 1 {
				t.Fatalf("the replayed message was raised %d times", n)
			}
			if got := atAlice.OfType(events.SecureMessage); len(got) != 0 {
				t.Fatalf("an accept surfaced as a message at alice: %+v", got[0])
			}
			// Replayed while alice held the channel it answers, the accept is
			// what bob sends again when he sees the offer again; replayed after
			// that, it answers nothing. Either way it is dropped quietly: an
			// accept never enters a guard's table.
			if got := atAlice.OfType(events.SecurityAlert); len(got) != 0 {
				t.Fatalf("replayed accepts raised %d alerts at alice: %v", len(got), got)
			}
		})
	}
}

// (c) Reflection. Channels are directional: a frame bounced back at its
// sender names a channel the sender holds no inbound end of, an offer
// bounced back is an envelope sealed to someone else, and an accept
// bounced back at its sender answers no offer of his.
func TestChannelReflection(t *testing.T) {
	p := newChannelPair(t, newSecureStack(t), false)
	atAlice := events.NewCollector(p.alice.Bus())
	say(t, p.alice, p.bob.PeerID(), p.atBob, "to bob")
	frames := wiresTo(p.eve, p.bob.PeerID(), core.ModeChannel)
	p.inject(t, p.bob.PeerID(), p.alice.PeerID(), frames[len(frames)-1])
	p.inject(t, p.bob.PeerID(), p.alice.PeerID(), wiresTo(p.eve, p.bob.PeerID(), core.ModeFull)[0])
	established := p.metric(t, core.ChannelEstablishedMetric)
	p.inject(t, p.alice.PeerID(), p.bob.PeerID(), wiresTo(p.eve, p.alice.PeerID(), core.ModeAccept)[0])
	if a := alerts(t, atAlice, 1)[0]; !strings.Contains(a.Attr("reason"), core.ErrNotRecipient.Error()) {
		t.Fatalf("reflected offer refused as %v", a.Payload)
	}
	if got := p.atBob.OfType(events.SecurityAlert); len(got) != 0 || p.metric(t, core.ChannelEstablishedMetric) != established {
		t.Fatalf("a reflected accept raised %d alerts at bob, or established a channel", len(got))
	}
	if got := atAlice.OfType(events.SecureMessage); len(got) != 0 {
		t.Fatalf("alice opened a reflected wire: %q", got[0].Data)
	}
	if e := say(t, p.alice, p.bob.PeerID(), p.atBob, "still up"); e.Attr("mode") != core.ModeChannel.String() {
		t.Fatalf("after the reflection alice's message travelled as %q", e.Attr("mode"))
	}
}

// lostAccept is alice's offer to bob left pending: bob answers it, and his
// accept crosses eve's tap and is lost on the way to alice. mallory is a
// credentialed third member.
type lostAccept struct {
	*channelPair
	mallory       *core.SecureClient
	atAlice       *events.Collector
	offer         *attack.Header
	accept        []byte // bob's, lost
	channel       []byte
	aliceShare    []byte
	bobKey        *keys.PublicKey
	aliceKP       *keys.KeyPair
	malloryKP     *keys.KeyPair
	alertsAtAlice int
}

func newLostAccept(t *testing.T) *lostAccept {
	t.Helper()
	s := newSecureStack(t)
	eve := attack.NewEavesdropper(s.net)
	alice := s.join(t, "alice", "alice-secret-pw")
	bob := s.join(t, "bob", "bob-secret-pw")
	mallory := s.join(t, "mallory", "mallory-pw")
	atBob := events.NewCollector(bob.Bus())
	s.net.SetLinkOneWay(simnet.NodeID(bob.PeerID()), simnet.NodeID(alice.PeerID()), simnet.LinkProfile{Loss: 1})
	say(t, alice, bob.PeerID(), atBob, "hello")
	p := &channelPair{s: s, alice: alice, bob: bob, atBob: atBob, eve: eve}
	var err error
	if p.raw, err = attack.NewRawNode(s.net, "attacker-node"); err != nil {
		t.Fatal(err)
	}
	// bob answers once the message is out.
	waituntil.Must(t, 5*time.Second, func() bool { return len(wiresTo(eve, alice.PeerID(), core.ModeAccept)) == 1 }, "bob sent no accept")
	l := &lostAccept{channelPair: p, mallory: mallory, atAlice: events.NewCollector(alice.Bus()),
		bobKey: bob.Identity().Keys.Public(), aliceKP: alice.Identity().Keys, malloryKP: mallory.Identity().Keys}
	l.offer, l.accept = handshakeOf(t, p)
	l.channel, l.aliceShare = l.offer.Channel, l.offer.Share
	return l
}

// try delivers an accept to alice in sender's name and checks what came
// of it: the alert wantAlert names ("" = none), and no channel — alice's
// next message to bob still travels as an envelope. An accept that raises
// an alert has been handled once the alert is out; one that raises none
// is given the time a delivery takes, and changes nothing whenever it is
// handled.
func (l *lostAccept) try(t *testing.T, name string, sender keys.PeerID, accept []byte, wantAlert string) {
	t.Helper()
	l.inject(t, sender, l.alice.PeerID(), accept)
	if wantAlert != "" {
		l.alertsAtAlice++
		waituntil.Must(t, 5*time.Second, func() bool { return len(l.atAlice.OfType(events.SecurityAlert)) >= l.alertsAtAlice }, "%s: no alert", name)
	} else {
		time.Sleep(50 * time.Millisecond)
	}
	if e := say(t, l.alice, l.bob.PeerID(), l.atBob, name); e.Attr("mode") != core.ModeFull.String() {
		t.Errorf("%s: alice's next message travelled as %q: the accept brought a channel up", name, e.Attr("mode"))
	}
	got := l.atAlice.OfType(events.SecurityAlert)
	if len(got) != l.alertsAtAlice {
		t.Fatalf("%s: %d alerts at alice in all, want %d", name, len(got), l.alertsAtAlice)
	}
	if wantAlert != "" && !strings.Contains(got[len(got)-1].Attr("reason"), wantAlert) {
		t.Errorf("%s: refused as %q, want %q", name, got[len(got)-1].Attr("reason"), wantAlert)
	}
}

// forge builds an accept for alice's pending offer from the X25519 outputs
// an attacker computed, in the key schedule's order, over share.
func (l *lostAccept) forge(t *testing.T, ee, es, share []byte) []byte {
	t.Helper()
	_, tag, err := attack.ChannelKey(append(ee, es...), l.channel, l.alice.PeerID(), l.bob.PeerID(), l.aliceKP.Public(), l.bobKey, "math", l.aliceShare, share)
	if err != nil {
		t.Fatal(err)
	}
	return attack.Accept(l.channel, share, tag)
}

// finish checks that the lost accept itself still completes the channel,
// and that no accept surfaced as a message.
func (l *lostAccept) finish(t *testing.T) {
	t.Helper()
	if got := l.atAlice.OfType(events.SecureMessage); len(got) != 0 {
		t.Fatalf("an accept surfaced as a message: %+v", got[0])
	}
	l.inject(t, l.bob.PeerID(), l.alice.PeerID(), l.accept)
	waituntil.Must(t, 5*time.Second, func() bool {
		return say(t, l.alice, l.bob.PeerID(), l.atBob, fmt.Sprintf("probe %d", time.Now().UnixNano())).Attr("mode") == core.ModeChannel.String()
	}, "bob's own accept did not complete the channel")
}

// (d) An accept by anyone but the offered peer. alice's offer to bob is
// pending (bob's accept is lost). mallory, a credentialed member who has
// learned the offer's fields, answers it in her own name, and in bob's
// with the best secrets she has: her ephemeral against alice's, and her
// own agreement key where bob's belongs. Neither completes the channel;
// the one in bob's name is refused as not matching the offer.
func TestChannelAcceptByThirdPartyRefused(t *testing.T) {
	l := newLostAccept(t)
	eph, err := keys.NewAgreementKey()
	if err != nil {
		t.Fatal(err)
	}
	ee, err := eph.Agree(l.aliceShare)
	if err != nil {
		t.Fatal(err)
	}
	es, err := l.malloryKP.Agree(l.aliceShare)
	if err != nil {
		t.Fatal(err)
	}
	forged := l.forge(t, ee, es, eph.Share())
	for _, tc := range []struct {
		name      string
		sender    keys.PeerID
		wantAlert string // "" = dropped without one
	}{
		{"mallory answers in her own name", l.mallory.PeerID(), ""},
		{"mallory answers in bob's name", l.bob.PeerID(), "does not match the offer"},
	} {
		l.try(t, tc.name, tc.sender, forged, tc.wantAlert)
	}
	l.finish(t)
}

// (d′) The holder of alice's RSA key forges bob's accept. It derives
// alice's agreement key and knows every public share, and can compute
// every X25519 but the two the key schedule takes: those need alice's
// ephemeral, or bob's ephemeral and bob's agreement key. Splicing bob's
// lost accept — another share, another channel ID, the tag of another
// channel — brings no channel up either. Only the lost accept itself does.
func TestChannelAcceptForgedOrSplicedRefused(t *testing.T) {
	l := newLostAccept(t)
	bobShare := l.accept[17:49]
	staticShare, _ := l.bobKey.AgreementShare()
	eph, err := keys.NewAgreementKey()
	if err != nil {
		t.Fatal(err)
	}
	must := func(secret []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return secret
	}
	// bob's accept of mallory's offer: the tag of another channel.
	say(t, l.mallory, l.bob.PeerID(), l.atBob, "mallory's offer")
	waituntil.Must(t, 5*time.Second, func() bool { return len(wiresTo(l.eve, l.mallory.PeerID(), core.ModeAccept)) == 1 }, "bob did not answer mallory")
	otherTag := wiresTo(l.eve, l.mallory.PeerID(), core.ModeAccept)[0][49:]
	splice := func(at int, with []byte) []byte {
		w := bytes.Clone(l.accept)
		copy(w[at:], with)
		return w
	}
	otherID := bytes.Clone(l.channel)
	otherID[0] ^= 1
	for _, tc := range []struct {
		name      string
		accept    []byte
		wantAlert string // "" = dropped without one
	}{
		// alice's key buys her static-static and static-ephemeral terms.
		{"alice's key: own agreement key against bob's", l.forge(t,
			must(eph.Agree(l.aliceShare)), must(l.aliceKP.Agree(staticShare[:])), eph.Share()), "does not match the offer"},
		{"alice's key: own agreement key against her offer's share", l.forge(t,
			must(l.aliceKP.Agree(bobShare)), must(l.aliceKP.Agree(l.aliceShare)), bobShare), "does not match the offer"},
		{"another E_R", splice(17, eph.Share()), "does not match the offer"},
		{"another channel ID", splice(1, otherID), ""},
		{"the tag of another channel", splice(49, otherTag), "does not match the offer"},
	} {
		l.try(t, tc.name, l.bob.PeerID(), tc.accept, tc.wantAlert)
	}
	l.finish(t)
}

// (d″) A recipient whose credential certifies no agreement key can be
// sealed nothing: every envelope, like every round and every offer, is
// sealed to that key. So a message to it is refused at its sender — never
// sent in a weaker form, and never offered a channel. carol's credential
// is issued by the broker's key without the share her login carried; she
// publishes her pipe advertisement under it.
func TestRecipientWithoutShareIsSentNothing(t *testing.T) {
	s := newSecureStack(t)
	s.db.Register("carol", "carol-pw", "math")
	alice := s.join(t, "alice", "alice-secret-pw")
	carol := s.join(t, "carol", "carol-pw")
	ctx := testCtx(t)
	// carol's join pushed alice her first advertisement on a fabric
	// goroutine of its own: let it land before the one that replaces it.
	waituntil.Must(t, 5*time.Second, func() bool {
		_, err := alice.Cache().Lookup(advert.TypePipe, advert.GroupPipeID(carol.PeerID(), "math"))
		return err == nil
	}, "alice never received carol's pipe advertisement")
	brCred := s.brSec.Credential()
	carolKP := carol.Identity().Keys
	bare, err := cred.Issue(s.brKP, brCred.Subject, carol.PeerID(), "carol", cred.RoleClient, carolKP.Public().WithShare(nil), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := (&advert.Pipe{PipeID: advert.GroupPipeID(carol.PeerID(), "math"), PipeType: advert.PipeUnicast,
		PeerID: carol.PeerID(), Group: "math"}).Document()
	if err != nil {
		t.Fatal(err)
	}
	if err := xdsig.Sign(doc, carolKP, bare, brCred); err != nil {
		t.Fatal(err)
	}
	if err := carol.PublishAdvDoc(ctx, doc); err != nil {
		t.Fatal(err)
	}
	waituntil.Must(t, 5*time.Second, func() bool {
		_, raw, err := alice.LookupPipe(ctx, carol.PeerID(), "math")
		if err != nil {
			return false
		}
		res, err := alice.VerifyCache().VerifyTrusted(raw, alice.Now())
		if err != nil {
			return false
		}
		_, certified := res.Signer.Key.AgreementShare()
		return !certified
	}, "alice never saw carol's advertisement without an agreement key")

	atCarol := events.NewCollector(carol.Bus())
	eve := attack.NewEavesdropper(s.net)
	signed := alice.Identity().Keys.SignCalls()
	for i := 0; i < 2; i++ {
		if err := alice.SecureMsgPeer(ctx, carol.PeerID(), "math", fmt.Sprintf("to carol %d", i)); !errors.Is(err, keys.ErrNoAgreementKey) {
			t.Fatalf("message %d to carol: err = %v, want keys.ErrNoAgreementKey", i, err)
		}
	}
	if n := alice.Identity().Keys.SignCalls() - signed; n != 0 {
		t.Errorf("alice signed %d times for 2 refused messages, want none", n)
	}
	for _, m := range []core.Mode{core.ModeFull, core.ModeChannel} {
		if got := wiresTo(eve, carol.PeerID(), m); len(got) != 0 {
			t.Errorf("%d %s wires reached carol: a recipient that certifies no agreement key was sent something", len(got), m)
		}
	}
	if got := atCarol.OfType(events.SecurityAlert); len(got) != 0 {
		t.Errorf("carol raised %d alerts, first %v", len(got), got[0].Payload)
	}
}

// (e) Forged refusals at line rate. Channel ID and sequence number cross
// the wire in the clear, so anyone can refuse alice's every frame in
// bob's name. Each refusal costs her the channel and one envelope — the
// paper's primitive, the price of every message before this change — and
// nothing else: every message is delivered exactly once, and neither end
// accumulates anything.
func TestChannelForgedRefusals(t *testing.T) {
	p := newChannelPair(t, newSecureStack(t), true)
	// The attacker refuses every frame to bob the moment it is on the wire.
	var mu sync.Mutex
	forged := 0
	p.s.net.AddTap(func(pkt simnet.Packet) {
		if pkt.To != simnet.NodeID(p.bob.PeerID()) {
			return
		}
		f, err := endpoint.ParseFrame(append([]byte(nil), pkt.Payload...))
		if err != nil {
			return
		}
		if wire, ok := f.Msg.Get(proto.ElemEnvelope); ok && core.Mode(wire[0]) == core.ModeChannel {
			refusal := append([]byte{byte(core.ModeRefusal)}, wire[1:25]...)
			mu.Lock()
			forged++
			mu.Unlock()
			_ = p.raw.Replay(simnet.NodeID(p.alice.PeerID()), attack.SpoofedPipeEnvelope(p.bob.PeerID(), p.alice.PeerID(), "math", refusal))
		}
	})
	const n = 40
	signed := p.alice.Identity().Keys.SignCalls()
	sent := make([]string, n)
	for i := range sent {
		sent[i] = fmt.Sprintf("under fire %d", i)
		if err := p.alice.SecureMsgPeer(testCtx(t), p.bob.PeerID(), "math", sent[i]); err != nil {
			t.Fatal(err)
		}
		// alice is a closed loop, as an application awaiting each delivery is.
		waituntil.Must(t, 5*time.Second, func() bool { return count(p.atBob, sent[i]) > 0 }, "%q never delivered", sent[i])
	}
	time.Sleep(100 * time.Millisecond)
	for _, text := range sent {
		if c := count(p.atBob, text); c != 1 {
			t.Errorf("%q delivered %d times, want once", text, c)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if got := p.alice.Identity().Keys.SignCalls() - signed; got > n {
		t.Errorf("alice signed %d times for %d messages under %d forged refusals: more than an envelope a message", got, n, forged)
	}
	if open := p.metric(t, core.ChannelsOpenMetric); open > 2 {
		t.Errorf("%v channels open after %d forged refusals, want at most alice's one and bob's one", open, forged)
	}
	t.Logf("%d forged refusals, %v fallbacks, alice signed %d times", forged, p.metric(t, core.ChannelFallbacksMetric), p.alice.Identity().Keys.SignCalls()-signed)
}

// (f) An offer flood. mallory, credentialed, sends bob envelopes that
// each carry a fresh offer. They are messages, and are delivered; but bob
// holds one inbound channel for her, makes at most one accept a second
// however many she offers, and signs nothing for any of them.
func TestChannelOfferFlood(t *testing.T) {
	s := newSecureStack(t)
	reg := telemetry.New()
	bob := s.join(t, "bob", "bob-secret-pw")
	mallory := s.join(t, "mallory", "mallory-pw")
	bob.BindTelemetry(reg)
	atBob := events.NewCollector(bob.Bus())
	bobFP, _ := bob.Identity().Keys.Public().Fingerprint()
	bobPipe, _, err := mallory.LookupPipe(testCtx(t), bob.PeerID(), "math")
	if err != nil {
		t.Fatal(err)
	}
	eve := attack.NewEavesdropper(s.net)
	signed := bob.Identity().Keys.SignCalls()
	start := time.Now()
	const n = 30
	for i := 0; i < n; i++ {
		id, _ := keys.RandomBytes(16)
		eph, err := keys.NewAgreementKey()
		if err != nil {
			t.Fatal(err)
		}
		body := []byte(fmt.Sprintf("flood %d", i))
		header := attack.NewHeader(core.ModeFull, mallory.PeerID(), "math", body)
		header.To, header.Channel, header.Share = bobFP[:], id, eph.Share()
		if err := header.Sign(mallory.Identity().Keys); err != nil {
			t.Fatal(err)
		}
		wire, err := attack.EnvelopeTo(bob.Identity().Keys.Public(), attack.Block(header.Bytes(), body))
		if err != nil {
			t.Fatal(err)
		}
		msg := endpoint.NewMessage().Add(proto.ElemEnvelope, wire).AddString(proto.ElemGroup, "math")
		if err := mallory.Control().SendOnPipe(bobPipe, nil, msg.Elements...); err != nil {
			t.Fatal(err)
		}
	}
	waituntil.Must(t, 10*time.Second, func() bool { return len(atBob.OfType(events.SecureMessage)) == n }, "not every flooding envelope was delivered")
	allowed := int(time.Since(start)/time.Second) + 1
	if got := bob.Identity().Keys.SignCalls() - signed; got != 0 {
		t.Errorf("bob signed %d times answering %d offers, want none", got, n)
	}
	if got := len(wiresTo(eve, mallory.PeerID(), core.ModeAccept)); got < 1 || got > allowed {
		t.Errorf("bob sent %d accepts in %v, want at least one and at most one a second", got, time.Since(start))
	}
	if open, _ := reg.Get(core.ChannelsOpenMetric); open != 1 {
		t.Errorf("bob holds %v channels after %d offers from one peer, want 1", open, n)
	}
	if got := atBob.OfType(events.SecurityAlert); len(got) != 0 {
		t.Errorf("the flood raised %d alerts, first %v", len(got), got[0].Payload)
	}
}

// (g) A channel does not outlive the credentials it was agreed under. By
// bob's clock alice's credential has run out — hers, behind his, says
// otherwise, so she still sends a frame: bob refuses it. She sends the
// message again as an envelope, and bob, who has one clock, refuses that
// too, by the paper's own check: the credential under her advertisement
// has expired. Nothing of hers reaches his application on either path.
func TestChannelFrameAfterCredentialExpiryRefused(t *testing.T) {
	s := newSecureStackWith(t, core.BrokerConfig{RequireSignedAdvs: true, CredValidity: 5 * time.Minute})
	p := newChannelPair(t, s, false)
	notAfter := p.alice.Identity().Credential.NotAfter
	if until := time.Until(notAfter); until > 5*time.Minute || until < 4*time.Minute {
		t.Fatalf("alice's credential runs for %v, want the 5 minutes configured", until)
	}
	// bob's clock: inside the channel's lifetime, past the credential's.
	p.bob.Endpoint().SetClock(func() time.Time { return notAfter.Add(time.Second) })
	refusals := p.metric(t, core.ChannelRefusalsSentMetric)
	if err := p.alice.SecureMsgPeer(testCtx(t), p.bob.PeerID(), "math", "late"); err != nil {
		t.Fatal(err)
	}
	waituntil.Must(t, 10*time.Second, func() bool { return len(p.atBob.OfType(events.SecurityAlert)) > 0 },
		"bob raised no alert for the envelope of an expired credential")
	if got := p.metric(t, core.ChannelRefusalsSentMetric); got != refusals+1 {
		t.Fatalf("refusals sent %v -> %v, want one more: the frame's", refusals, got)
	}
	if reason := p.atBob.OfType(events.SecurityAlert)[0].Payload["reason"]; reason != core.ErrSenderUnknown.Error() {
		t.Fatalf("the envelope was refused with %q, want the sender's expired chain: %q", reason, core.ErrSenderUnknown)
	}
	if c := count(p.atBob, "late"); c != 0 {
		t.Fatalf("a message under an expired credential was delivered %d times", c)
	}
}

// (h) The forwarded envelope of forward_test.go, carrying an offer: the
// offer is as bound to its recipient as the message is. bob refuses the
// envelope and answers no offer.
func TestForwardedOfferRefused(t *testing.T) {
	forwardedEnvelopeRefused(t)
}
