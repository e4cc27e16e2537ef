package peergroup

import (
	"sync"
	"testing"

	"jxtaoverlay/internal/keys"
)

func TestCreateGetJoin(t *testing.T) {
	r := NewRegistry()
	g, err := r.Create("urn:jxta:group-1", "lab", "lab group", "urn:jxta:cbid-1")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := r.Create("urn:jxta:group-2", "lab", "", ""); err == nil {
		t.Fatal("duplicate Create succeeded")
	}
	if _, err := r.Create("x", "", "", ""); err == nil {
		t.Fatal("empty-name Create succeeded")
	}
	got, err := r.Get("lab")
	if err != nil || got != g {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if _, err := r.Get("nope"); err == nil {
		t.Fatal("Get(nope) succeeded")
	}
	if err := r.Join("lab", "urn:jxta:cbid-2", "alice"); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if !g.Has("urn:jxta:cbid-2") || g.Size() != 1 {
		t.Fatal("membership not recorded")
	}
	if err := r.Join("nope", "urn:jxta:cbid-2", "alice"); err == nil {
		t.Fatal("Join to missing group succeeded")
	}
}

func TestLeave(t *testing.T) {
	r := NewRegistry()
	r.Create("g1", "lab", "", "")
	r.Join("lab", "p1", "alice")
	if err := r.Leave("lab", "p1"); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if err := r.Leave("lab", "p1"); err == nil {
		t.Fatal("second Leave succeeded")
	}
	if err := r.Leave("nope", "p1"); err == nil {
		t.Fatal("Leave from missing group succeeded")
	}
}

func TestOverlappingMembership(t *testing.T) {
	r := NewRegistry()
	r.Create("g1", "math", "", "")
	r.Create("g2", "physics", "", "")
	r.Create("g3", "art", "", "")
	r.Join("math", "p1", "alice")
	r.Join("physics", "p1", "alice")
	r.Join("physics", "p2", "bob")
	r.Join("art", "p3", "carol")

	got := r.GroupsOf("p1")
	if len(got) != 2 || got[0] != "math" || got[1] != "physics" {
		t.Fatalf("GroupsOf(p1) = %v", got)
	}
	if !r.SameGroup("p1", "p2") {
		t.Fatal("p1/p2 share physics")
	}
	if r.SameGroup("p1", "p3") {
		t.Fatal("p1/p3 share nothing")
	}
}

func TestLeaveAll(t *testing.T) {
	r := NewRegistry()
	r.Create("g1", "math", "", "")
	r.Create("g2", "physics", "", "")
	r.Join("math", "p1", "alice")
	r.Join("physics", "p1", "alice")
	r.LeaveAll("p1")
	if len(r.GroupsOf("p1")) != 0 {
		t.Fatal("LeaveAll left memberships behind")
	}
}

func TestMembersSorted(t *testing.T) {
	r := NewRegistry()
	r.Create("g", "lab", "", "")
	r.Join("lab", "pC", "c")
	r.Join("lab", "pA", "a")
	r.Join("lab", "pB", "b")
	g, _ := r.Get("lab")
	m := g.Members()
	if len(m) != 3 || m[0].PeerID != "pA" || m[2].PeerID != "pC" {
		t.Fatalf("Members = %v", m)
	}
}

// AppendMemberIDs lists the members in no order, behind what dst holds,
// and into dst's own room when it has enough.
func TestAppendMemberIDs(t *testing.T) {
	r := NewRegistry()
	r.Create("g", "lab", "", "")
	r.Join("lab", "pB", "b")
	r.Join("lab", "pA", "a")
	g, _ := r.Get("lab")
	var room [4]keys.PeerID
	ids := g.AppendMemberIDs(append(room[:0], "pX"))
	if len(ids) != 3 || &ids[0] != &room[0] || ids[0] != "pX" {
		t.Fatalf("AppendMemberIDs = %v", ids)
	}
	if !(ids[1] == "pA" && ids[2] == "pB" || ids[1] == "pB" && ids[2] == "pA") {
		t.Fatalf("AppendMemberIDs = %v, want pX then pA and pB", ids)
	}
}

func TestListSorted(t *testing.T) {
	r := NewRegistry()
	r.Create("1", "zeta", "", "")
	r.Create("2", "alpha", "", "")
	got := r.List()
	if len(got) != 2 || got[0] != "alpha" {
		t.Fatalf("List = %v", got)
	}
}

func TestEnsure(t *testing.T) {
	r := NewRegistry()
	g1 := r.Ensure("id1", "lab", "", "p")
	g2 := r.Ensure("id2", "lab", "", "p")
	if g1 != g2 {
		t.Fatal("Ensure created duplicate group")
	}
	if g1.ID != "id1" {
		t.Fatal("Ensure overwrote existing group")
	}
}

func TestConcurrentJoinLeave(t *testing.T) {
	r := NewRegistry()
	r.Create("g", "lab", "", "")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pid := keys.PeerID("p" + string(rune('a'+i)))
			for j := 0; j < 50; j++ {
				r.Join("lab", pid, "x")
				r.GroupsOf(pid)
				r.Leave("lab", pid)
			}
		}(i)
	}
	wg.Wait()
}
