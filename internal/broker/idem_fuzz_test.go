package broker

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
)

// idemFuzzOps are the ops a fuzzed request may carry: every one a client
// can send a broker without a credential, the two that change who is
// logged in among them, and one the broker does not know.
var idemFuzzOps = []string{
	proto.OpConnect, proto.OpLogin, proto.OpLogout, proto.OpGroupCreate, proto.OpGroupJoin,
	proto.OpGroupLeave, proto.OpGroupList, proto.OpListPeers, proto.OpLookupAdv,
	proto.OpLookupPipe, proto.OpFileSearch, unknownOp,
}

const unknownOp = "no-such-op"

// FuzzIdemKey drives arbitrary idempotency keys (proto.ElemIdem), ops
// and senders — a logged-in member, or a stranger who never logged in —
// through Broker.dispatch, on one broker whose dedup table the whole run
// fills. Properties: dispatch never panics; it never stores a key longer
// than idemMaxKeyLen, nor one presented by a peer that was not logged in;
// the table never holds more than idemMaxEntries; a key it honoured and
// stored, presented again by the same logged-in peer, is answered with
// the cached response, not executed again; and what one dispatch
// allocates is bounded by the input's size, the bound FuzzOpen holds.
func FuzzIdemKey(f *testing.F) {
	net := simnet.NewNetwork(simnet.ProfileLocal)
	defer net.Close()
	b, err := New(Config{Name: "b1", PeerID: keys.LegacyPeerID("b1"), Net: net, DB: AuthenticatorFunc(acceptAll)})
	if err != nil {
		f.Fatal(err)
	}
	defer b.Close()
	const member, stranger = keys.PeerID("urn:jxta:member"), keys.PeerID("urn:jxta:stranger")
	// The table starts full, the state a busy broker's is in: it has done
	// all its growing, and a store evicts.
	for i := 0; i < idemMaxEntries; i++ {
		b.idem.store("urn:jxta:filler", strconv.Itoa(i), endpoint.NewMessage(), b.Now())
	}

	f.Add("ik-1z141z3", uint8(0), true)
	f.Add("ik-1z141z3", uint8(0), false)
	f.Add(strings.Repeat("k", idemMaxKeyLen), uint8(3), true)
	f.Add(strings.Repeat("k", idemMaxKeyLen+1), uint8(3), true)
	f.Add("ik-2", uint8(1), false) // a stranger's keyed login
	f.Add("ik-3", uint8(2), true)  // a member's keyed logout
	f.Add("", uint8(6), true)
	f.Add("\x00\xff\n", uint8(11), true)

	// What one dispatch may allocate: the op's own work — under 4 KiB for
	// every op here, a keyed login the most — about one copy of the key
	// (a 100 KB key costs ≈ 107 KB), and, now and then, the full table's
	// index rebuilt: Go's maps clear deleted slots by rehashing, ≈ 100 KB
	// at 4,096 entries, about once a minute of fuzzing. The fixed part is
	// that rehash and FuzzOpen's 32 KiB of slack for what other goroutines
	// allocate meanwhile (TotalAlloc is process-wide).
	const (
		allocPerByte = 8
		allocFixed   = 160 << 10
	)
	var before, after runtime.MemStats
	f.Fuzz(func(t *testing.T, key string, opSel uint8, loggedIn bool) {
		// Who is logged in is part of the input, not of the inputs before it.
		b.dispatch(member, endpoint.NewMessage().AddString(proto.ElemOp, proto.OpLogin).
			AddString(proto.ElemUser, "member").AddString(proto.ElemPass, "pw"))
		b.dispatch(stranger, endpoint.NewMessage().AddString(proto.ElemOp, proto.OpLogout))
		if !b.loggedIn(member) || b.loggedIn(stranger) {
			t.Fatal("the member is not logged in, or the stranger is")
		}
		from := stranger
		if loggedIn {
			from = member
		}
		op := idemFuzzOps[int(opSel)%len(idemFuzzOps)]
		request := func() *endpoint.Message {
			return endpoint.NewMessage().
				AddString(proto.ElemOp, op).
				AddString(proto.ElemUser, "member").
				AddString(proto.ElemPass, "pw").
				AddString(proto.ElemGroup, "g1").
				AddString(proto.ElemIdem, key)
		}

		_, held := b.idem.lookup(from, key, b.Now())
		honoured := key != "" && len(key) <= idemMaxKeyLen && loggedIn
		req := request()
		runtime.ReadMemStats(&before)
		first := b.dispatch(from, req)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(allocFixed+allocPerByte*len(key)); got > limit {
			t.Fatalf("%s with a %d-byte key allocated %d bytes, limit %d", op, len(key), got, limit)
		}
		if n := b.IdemEntries(); n > idemMaxEntries {
			t.Fatalf("%d entries in the dedup table, the cap is %d", n, idemMaxEntries)
		}
		cached, stored := b.idem.lookup(from, key, b.Now())
		if stored && !held && !honoured {
			t.Fatalf("%s stored the key %q presented by %s (logged in: %v), which it must not honour", op, key, from, loggedIn)
		}
		if op == unknownOp {
			return // refused before the table is consulted
		}
		// A key is the peer's, not the op's: any op the broker knows,
		// presented under a key it holds, is answered from the table.
		if held && cached != first {
			t.Fatalf("%s with the honoured key %q re-executed instead of answering from the table", op, key)
		}
		if !stored || !b.loggedIn(from) {
			return
		}
		if again := b.dispatch(from, request()); again != cached {
			t.Fatalf("%s replayed with the stored key %q was not answered with the cached response", op, key)
		}
	})
}
