package broker

// Group membership lives on the session record: a peer is a live member
// of a group while its record is online and names the group.

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/waituntil"
)

// mustOK fails the test unless resp is an OK answer.
func mustOK(t *testing.T, resp *endpoint.Message) {
	t.Helper()
	if ok, errTok := proto.IsOK(resp); !ok {
		t.Fatalf("refused: %s", errTok)
	}
}

// mustFail fails the test unless resp is a refusal with token want.
func mustFail(t *testing.T, resp *endpoint.Message, want string) {
	t.Helper()
	if ok, errTok := proto.IsOK(resp); ok || errTok != want {
		t.Fatalf("answer = ok %v / %q, want %q", ok, errTok, want)
	}
}

// onlineIn returns the IDs of group's live members (every online peer's
// when group is empty), in the order the getOnlinePeers roster lists
// them.
func onlineIn(b *Broker, group string) []keys.PeerID {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var ids []keys.PeerID
	for _, p := range b.rosterRows(group, false) {
		ids = append(ids, p.ID)
	}
	return ids
}

// callerOf is the Caller Dispatch hands the handler of an op id sends
// now: id's session record as the table holds it.
func callerOf(b *Broker, id keys.PeerID) Caller {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return Caller{ID: id, s: b.peers[id], mu: &b.mu}
}

// knownIn reports whether the store-and-forward roster of group counts
// id: whether id's record, online or not, names group.
func knownIn(b *Broker, id keys.PeerID, group string) bool {
	_, ok := b.MemberID([]byte(id), group)
	return ok
}

// notice is one presence notice the broker pushed.
type notice struct {
	to                  simnet.NodeID
	peer, group, status string
}

// tapNotices records every presence notice b pushes on net.
func tapNotices(net *simnet.Network, b *Broker) func() []notice {
	var mu sync.Mutex
	var got []notice
	net.AddTap(func(p simnet.Packet) {
		if p.From != b.NodeID() {
			return
		}
		f, err := endpoint.ParseFrame(p.Payload)
		if err != nil {
			return
		}
		if op, _ := f.Msg.GetString(proto.ElemOp); op != proto.OpPresencePush {
			return
		}
		peer, _ := f.Msg.GetString(proto.ElemPeer)
		group, _ := f.Msg.GetString(proto.ElemGroup)
		status, _ := f.Msg.GetString(proto.ElemStatus)
		mu.Lock()
		got = append(got, notice{p.To, peer, group, status})
		mu.Unlock()
	})
	return func() []notice {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(got)
	}
}

// A login's groups are its database groups: logging in again without a
// logout leaves a group the peer joined since, in the record and in live
// membership alike, and the group's members are told, as a logout would
// tell them.
func TestReloginMembershipFollowsRecord(t *testing.T) {
	b, net := newBroker(t)
	notices := tapNotices(net, b)
	alice := newCaller(t, net, b, "urn:jxta:c1")
	bob := newCaller(t, net, b, "urn:jxta:c2")
	alice.login("alice")
	bob.login("bob")
	mustOK(t, alice.op(proto.OpGroupCreate, proto.ElemGroup, "chess"))
	mustOK(t, alice.op(proto.OpGroupJoin, proto.ElemGroup, "chess"))
	mustOK(t, bob.op(proto.OpGroupJoin, proto.ElemGroup, "chess"))

	alice.login("alice") // no logout between: the database names g1 alone
	info, _ := b.Peer("urn:jxta:c1")
	if !slices.Equal(info.Groups, []string{"g1"}) {
		t.Fatalf("record groups after the re-login = %v, want [g1]", info.Groups)
	}
	for _, g := range []string{"g1", "chess"} {
		named := slices.Contains(info.Groups, g)
		c := callerOf(b, info.ID)
		if live := slices.Contains(onlineIn(b, g), info.ID); live != named || c.Member(g) != named || knownIn(b, info.ID, g) != named {
			t.Fatalf("%s: named by the record %v, live member %v, Member %v, on the roster %v", g, named, live, c.Member(g), knownIn(b, info.ID, g))
		}
	}
	left := notice{simnet.NodeID("urn:jxta:c2"), "urn:jxta:c1", "chess", "offline"}
	waituntil.Must(t, 5*time.Second, func() bool { return slices.Contains(notices(), left) }, "bob was not told alice left chess")
}

// A peer may belong to any number of groups at once, and a group's live
// members are the online peers whose records name it.
func TestOverlappingMembership(t *testing.T) {
	b, net := newBroker(t)
	alice := newCaller(t, net, b, "urn:jxta:c1")
	bob := newCaller(t, net, b, "urn:jxta:c2")
	carol := newCaller(t, net, b, "urn:jxta:c3")
	alice.login("alice")
	bob.login("bob")
	carol.login("carol")
	for _, g := range []string{"physics", "art"} {
		mustOK(t, alice.op(proto.OpGroupCreate, proto.ElemGroup, g))
	}
	mustOK(t, alice.op(proto.OpGroupJoin, proto.ElemGroup, "physics"))
	mustOK(t, bob.op(proto.OpGroupJoin, proto.ElemGroup, "physics"))
	mustOK(t, carol.op(proto.OpGroupJoin, proto.ElemGroup, "art"))

	if info, _ := b.Peer("urn:jxta:c1"); !slices.Equal(info.Groups, []string{"g1", "physics"}) {
		t.Fatalf("alice's groups = %v, want [g1 physics]", info.Groups)
	}
	if got := onlineIn(b, "physics"); !slices.Equal(got, []keys.PeerID{"urn:jxta:c1", "urn:jxta:c2"}) {
		t.Fatalf("physics = %v, want alice and bob", got)
	}
	if got := onlineIn(b, "art"); !slices.Equal(got, []keys.PeerID{"urn:jxta:c3"}) {
		t.Fatalf("art = %v, want carol", got)
	}
	if callerOf(b, "urn:jxta:c1").Member("art") || !callerOf(b, "urn:jxta:c3").Member("g1") {
		t.Fatal("Member disagrees with the records")
	}
}

// A member leaves a group once: leaving again, or leaving a group that
// does not exist, is refused.
func TestGroupLeave(t *testing.T) {
	b, net := newBroker(t)
	c := newCaller(t, net, b, "urn:jxta:c1")
	c.login("alice")
	mustOK(t, c.op(proto.OpGroupCreate, proto.ElemGroup, "lab"))
	mustOK(t, c.op(proto.OpGroupJoin, proto.ElemGroup, "lab"))
	mustOK(t, c.op(proto.OpGroupLeave, proto.ElemGroup, "lab"))
	if callerOf(b, "urn:jxta:c1").Member("lab") || len(onlineIn(b, "lab")) != 0 {
		t.Fatal("alice is still a live member of lab")
	}
	mustFail(t, c.op(proto.OpGroupLeave, proto.ElemGroup, "lab"), proto.ErrNoGroup)
	mustFail(t, c.op(proto.OpGroupLeave, proto.ElemGroup, "nope"), proto.ErrNoGroup)
}

// A logout takes the peer out of every group it was live in, while its
// record keeps naming them: the store-and-forward roster.
func TestLogoutLeavesEveryGroup(t *testing.T) {
	b, net := newBroker(t)
	c := newCaller(t, net, b, "urn:jxta:c1")
	c.login("alice")
	mustOK(t, c.op(proto.OpGroupCreate, proto.ElemGroup, "physics"))
	mustOK(t, c.op(proto.OpGroupJoin, proto.ElemGroup, "physics"))
	mustOK(t, c.op(proto.OpLogout))
	for _, g := range []string{"g1", "physics"} {
		if callerOf(b, "urn:jxta:c1").Member(g) || len(onlineIn(b, g)) != 0 {
			t.Fatalf("alice is still a live member of %s after her logout", g)
		}
		if !knownIn(b, "urn:jxta:c1", g) {
			t.Fatalf("alice's record no longer names %s", g)
		}
	}
}

// Creating a group claims its name once; a name is required, and only a
// group that exists can be joined.
func TestGroupCreateJoin(t *testing.T) {
	b, net := newBroker(t)
	c := newCaller(t, net, b, "urn:jxta:c1")
	c.login("alice")
	mustOK(t, c.op(proto.OpGroupCreate, proto.ElemGroup, "lab", proto.ElemDesc, "lab group"))
	mustFail(t, c.op(proto.OpGroupCreate, proto.ElemGroup, "lab"), proto.ErrGroupExists)
	mustFail(t, c.op(proto.OpGroupCreate), proto.ErrBadRequest)
	mustFail(t, c.op(proto.OpGroupJoin, proto.ElemGroup, "nope"), proto.ErrNoGroup)
	mustOK(t, c.op(proto.OpGroupJoin, proto.ElemGroup, "lab"))
	if got := onlineIn(b, "lab"); !slices.Equal(got, []keys.PeerID{"urn:jxta:c1"}) {
		t.Fatalf("lab = %v, want alice", got)
	}
}

// A login makes its database groups known, once however many log in to
// them: they are listed, and their names cannot be created again.
func TestLoginKnowsDatabaseGroups(t *testing.T) {
	b, net := newBroker(t)
	c1 := newCaller(t, net, b, "urn:jxta:c1")
	c2 := newCaller(t, net, b, "urn:jxta:c2")
	c1.login("alice")
	c2.login("bob")
	if groups, _ := c1.op(proto.OpGroupList).GetString(proto.ElemGroups); groups != "g1" {
		t.Fatalf("groups = %q, want g1", groups)
	}
	mustFail(t, c1.op(proto.OpGroupCreate, proto.ElemGroup, "g1"), proto.ErrGroupExists)
}

// The group list is sorted by name.
func TestGroupListSorted(t *testing.T) {
	b, net := newBroker(t)
	c := newCaller(t, net, b, "urn:jxta:c1")
	c.login("alice")
	mustOK(t, c.op(proto.OpGroupCreate, proto.ElemGroup, "zeta"))
	mustOK(t, c.op(proto.OpGroupCreate, proto.ElemGroup, "alpha"))
	if groups, _ := c.op(proto.OpGroupList).GetString(proto.ElemGroups); groups != "alpha,g1,zeta" {
		t.Fatalf("groups = %q, want alpha,g1,zeta", groups)
	}
}

// A group's online peers are listed by peer ID.
func TestOnlinePeersSorted(t *testing.T) {
	b, _ := newBroker(t)
	for _, id := range []keys.PeerID{"pC", "pA", "pB"} {
		b.RegisterPeer(id, strings.ToLower(string(id)), []string{"lab"})
	}
	if got := onlineIn(b, "lab"); !slices.Equal(got, []keys.PeerID{"pA", "pB", "pC"}) {
		t.Fatalf("lab = %v, want pA pB pC", got)
	}
}

// Joins and leaves of many peers at once, beside readers of membership,
// each change one record under the broker's lock (run under -race).
func TestConcurrentJoinLeave(t *testing.T) {
	b, _ := newBroker(t)
	b.groups["lab"] = struct{}{}
	op := func(name string) *endpoint.Message {
		return endpoint.NewMessage().AddString(proto.ElemOp, name).AddString(proto.ElemGroup, "lab")
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		id := keys.PeerID(fmt.Sprintf("urn:jxta:p%02d", i))
		b.RegisterPeer(id, "x", []string{"g1"})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if ok, tok := proto.IsOK(b.Dispatch(id, op(proto.OpGroupJoin))); !ok {
					t.Errorf("join: %s", tok)
					return
				}
				callerOf(b, id).Member("lab")
				onlineIn(b, "lab")
				if ok, tok := proto.IsOK(b.Dispatch(id, op(proto.OpGroupLeave))); !ok {
					t.Errorf("leave: %s", tok)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := onlineIn(b, "lab"); len(got) != 0 {
		t.Fatalf("lab = %v after every peer left it", got)
	}
	if got := len(onlineIn(b, "g1")); got != 16 {
		t.Fatalf("g1 has %d live members, want 16", got)
	}
}
