package broker

// A handler acts on the session record Dispatch read for its caller. A
// login of the same peer that lands between that read and the handler
// ends the record the Caller holds, so the handler finds it offline and
// leaves the session that replaced it alone.

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
)

const bob keys.PeerID = "urn:jxta:bob"

// staleBob returns a broker and a Caller for bob read while bob's first
// session (groups g1 and lab, lease ls-1) was online; bob has logged in
// again since, with groups lab and g2 and lease ls-2. The group chess
// exists, and neither session names it.
func staleBob(t *testing.T) (*Broker, Caller) {
	t.Helper()
	b, _ := newBroker(t)
	b.groups["chess"] = struct{}{}
	b.RegisterLeasedPeer(bob, "bob", []string{"g1", "lab"}, Lease{ID: "ls-1", TTL: time.Hour})
	c := callerOf(b, bob)
	b.RegisterLeasedPeer(bob, "bob", []string{"lab", "g2"}, Lease{ID: "ls-2", TTL: time.Hour})
	if c.Online() {
		t.Fatal("the Caller read before the re-login still sees its record online")
	}
	return b, c
}

// wantNewSession fails the test unless bob's session is the re-login's,
// as it began: online in lab and g2, holding lease ls-2.
func wantNewSession(t *testing.T, b *Broker) {
	t.Helper()
	info, ok := b.Peer(bob)
	if !ok || !info.Online || !slices.Equal(info.Groups, []string{"lab", "g2"}) {
		t.Fatalf("bob's session after the op = %+v, want the re-login's: online in [lab g2]", info)
	}
	b.mu.RLock()
	lease := b.peers[bob].lease.ID
	b.mu.RUnlock()
	if lease != "ls-2" {
		t.Fatalf("bob's session holds lease %q, want ls-2", lease)
	}
}

func groupOp(op, group string) *endpoint.Message {
	return endpoint.NewMessage().AddString(proto.ElemOp, op).AddString(proto.ElemGroup, group)
}

// A logout read before a re-login ends nothing the re-login began.
func TestStaleCallerLogoutLeavesNewSession(t *testing.T) {
	b, c := staleBob(t)
	mustOK(t, b.handleLogout(c, endpoint.NewMessage().AddString(proto.ElemOp, proto.OpLogout)))
	wantNewSession(t, b)
}

// A leave read before a re-login is refused, and takes no group off the
// new session, even one both sessions name.
func TestStaleCallerLeaveLeavesNewGroups(t *testing.T) {
	b, c := staleBob(t)
	mustFail(t, b.handleGroupLeave(c, groupOp(proto.OpGroupLeave, "lab")), proto.ErrNoGroup)
	wantNewSession(t, b)
}

// A join read before a re-login is refused, and adds nothing to the new
// session.
func TestStaleCallerJoinRefused(t *testing.T) {
	b, c := staleBob(t)
	mustFail(t, b.handleGroupJoin(c, groupOp(proto.OpGroupJoin, "chess")), proto.ErrNoGroup)
	wantNewSession(t, b)
}

// Re-logins of many peers race their own joins, leaves and logouts
// through Dispatch (run under -race). Whatever the order, every record a
// login replaced has ended: offline, a live member of nothing, holding no
// lease; and no record in the table holds a lease offline.
func TestReloginRacesGroupOps(t *testing.T) {
	b, _ := newBroker(t)
	b.groups["lab"] = struct{}{}
	const peers, rounds = 8, 40
	replaced := make([][]*session, peers)
	var wg sync.WaitGroup
	for i := 0; i < peers; i++ {
		id := keys.PeerID(fmt.Sprintf("urn:jxta:p%02d", i))
		b.RegisterLeasedPeer(id, "x", []string{"g1"}, Lease{ID: fmt.Sprintf("ls-%d-0", i), TTL: time.Hour})
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 1; j <= rounds; j++ {
				// Only this goroutine replaces id's record, so the one
				// read before the login is the one the login replaces.
				old := callerOf(b, id).s
				b.RegisterLeasedPeer(id, "x", []string{"g1"}, Lease{ID: fmt.Sprintf("ls-%d-%d", i, j), TTL: time.Hour})
				replaced[i] = append(replaced[i], old)
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				b.Dispatch(id, groupOp(proto.OpGroupJoin, "lab"))
				b.Dispatch(id, groupOp(proto.OpGroupLeave, "lab"))
				b.Dispatch(id, groupOp(proto.OpGroupJoin, "lab"))
				if j%4 == 3 {
					b.Dispatch(id, endpoint.NewMessage().AddString(proto.ElemOp, proto.OpLogout))
				}
			}
		}()
	}
	wg.Wait()
	b.mu.RLock()
	defer b.mu.RUnlock()
	for i, olds := range replaced {
		for _, s := range olds {
			if s.Online || s.lease.ID != "" || s.liveIn("lab") || s.liveIn("g1") {
				t.Fatalf("peer %d: a replaced record is online %v, holds lease %q, groups %v", i, s.Online, s.lease.ID, s.Groups)
			}
		}
	}
	for id, s := range b.peers {
		if !s.Online && s.lease.ID != "" {
			t.Fatalf("%s: an offline record holds lease %q", id, s.lease.ID)
		}
	}
}
