// Store-and-forward delivery end-to-end: a sender uploads ONE sealed
// round to the broker relay while part of the group is logged out; the
// online members receive sliced wires immediately, the offline members'
// slices wait in bounded queues and drain — through the real presence
// pipeline — when they log back in.
package integration_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
	"jxtaoverlay/internal/waituntil"
)

func TestRelayedRoundSurvivesChurn(t *testing.T) {
	const (
		nPeers   = 9 // 1 sender + 8 recipients
		nOffline = 3 // recipients logged out at send time
	)
	net := simnet.NewNetwork(simnet.LinkProfile{})
	defer net.Close()

	dep := newDeployment(t)
	db := userdb.NewStoreIter(16)
	names := make([]string, nPeers)
	for i := range names {
		names[i] = "peer" + string(rune('a'+i))
		// Two groups: the mislabeled-round check below needs an insider
		// that legitimately belongs to both.
		db.Register(names[i], "pw", "g", "g2")
	}
	br := startBroker(t, dep, net, "relay-broker", db, core.BrokerConfig{RequireSignedAdvs: true}).Broker
	rly, err := core.EnableBrokerRelay(br, core.RelayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rly.Close()

	clients := make([]*core.SecureClient, nPeers)
	for i, name := range names {
		clients[i] = join(t, newClient(t, dep, net, name), br)
	}
	sender, online, offline := clients[0], clients[1:nPeers-nOffline], clients[nPeers-nOffline:]

	collectors := make(map[*core.SecureClient]*events.Collector, nPeers-1)
	for _, c := range clients[1:] {
		collectors[c] = events.NewCollector(c.Bus())
	}

	// Part of the group leaves BEFORE the round is sent.
	for _, c := range offline {
		if err := c.Logout(ctxT(t, 10*time.Second)); err != nil {
			t.Fatal(err)
		}
	}

	// One upload fans out to the full roster, present or not. Its wraps are
	// to the members' certified agreement keys: no member online performs
	// an RSA private-key operation to open its slice.
	signs := make(map[*core.SecureClient]uint64, len(online))
	for _, c := range online {
		signs[c] = c.Identity().Keys.SignCalls()
	}
	signsBefore := sender.Identity().Keys.SignCalls()
	direct, queued, err := sender.SecureMsgPeerGroupRelay(ctxT(t, 30*time.Second), "g", "survives churn")
	if err != nil {
		t.Fatal(err)
	}
	if got := sender.Identity().Keys.SignCalls() - signsBefore; got != 1 {
		t.Fatalf("relayed round cost %d sender signatures, want exactly 1", got)
	}
	if direct != len(online) || queued != len(offline) {
		t.Fatalf("direct=%d queued=%d, want %d/%d", direct, queued, len(online), len(offline))
	}

	// Online members get their slice now, authenticated end-to-end.
	for _, c := range online {
		e, ok := collectors[c].WaitFor(events.SecureMessage, 10*time.Second)
		if !ok {
			t.Fatalf("online member %s never received its slice", c.Username())
		}
		if string(e.Data) != "survives churn" || e.Attr("authenticated") != "true" {
			t.Fatalf("online member %s got %q (auth=%s)", c.Username(), e.Data, e.Attr("authenticated"))
		}
	}

	// The offline members' queues hold exactly their slices.
	if got := rly.QueuedTotal(); got != len(offline) {
		t.Fatalf("relay holds %d queued slices, want %d", got, len(offline))
	}

	// They return; the login presence event drains each queue.
	for _, c := range offline {
		join(t, c, br)
	}
	for _, c := range offline {
		e, ok := collectors[c].WaitFor(events.SecureMessage, 10*time.Second)
		if !ok {
			t.Fatalf("returning member %s never received its queued slice", c.Username())
		}
		if string(e.Data) != "survives churn" || e.Attr("authenticated") != "true" {
			t.Fatalf("returning member %s got %q (auth=%s)", c.Username(), e.Data, e.Attr("authenticated"))
		}
		if e.Attr("mode") != core.ModeSlice.String() {
			t.Fatalf("returning member %s got mode %s, want %s", c.Username(), e.Attr("mode"), core.ModeSlice)
		}
	}
	waituntil.True(5*time.Second, func() bool { return rly.QueuedTotal() == 0 })
	if got := rly.QueuedTotal(); got != 0 {
		t.Fatalf("relay still holds %d slices after everyone returned", got)
	}
	m := rly.Metrics()
	if m.DeliveredDirect != uint64(len(online)) || m.DeliveredFlushed != uint64(len(offline)) {
		t.Fatalf("metrics = %+v, want direct=%d flushed=%d", m, len(online), len(offline))
	}
	for c, before := range signs {
		if got := c.Identity().Keys.SignCalls() - before; got != 0 {
			t.Fatalf("member %s performed %d RSA private-key operations to open its slice, want 0", c.Username(), got)
		}
	}

	// A two-group insider mislabels a round: sealed (and signed) for
	// group "g", uploaded under "g2". The broker cannot look inside the
	// ciphertext, so it forwards — the recipient must refuse the
	// cross-group delivery rather than surface it as "g2" traffic.
	tgt := online[0]
	d, err := core.SealGroupDetached(sender.Identity().Keys, sender.PeerID(), "g",
		[]byte("mislabeled"), []*keys.PublicKey{tgt.Identity().Keys.Public()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sender.Call(ctxT(t, 10*time.Second), endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpRelayRound).
		AddString(proto.ElemGroup, "g2").
		AddString(proto.ElemRecipients, string(tgt.PeerID())).
		Add(proto.ElemEnvelope, d.Wire())); err != nil {
		t.Fatal(err)
	}
	e, ok := collectors[tgt].WaitFor(events.SecurityAlert, 10*time.Second)
	if !ok {
		t.Fatal("mislabeled round raised no security alert at the recipient")
	}
	if !strings.Contains(e.Payload["reason"], "wrong group") {
		t.Fatalf("alert reason = %q, want wrong-group rejection", e.Payload["reason"])
	}

	// A closed relay must refuse further rounds outright — an OK response
	// claiming slices were queued would be a lie the sender acts on.
	rly.Close()
	direct, queued, err = sender.SecureMsgPeerGroupRelay(ctxT(t, 30*time.Second), "g", "after close")
	if !errors.Is(err, core.ErrRelayUnavailable) || direct != 0 || queued != 0 {
		t.Fatalf("send after relay close: direct=%d queued=%d err=%v, want 0/0/ErrRelayUnavailable", direct, queued, err)
	}
}
