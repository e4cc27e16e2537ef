package core_test

import (
	"strings"
	"testing"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/taskexec"
)

func taskRegistry() *taskexec.Registry {
	reg := taskexec.NewRegistry()
	reg.Register("upper", func(args []string) (string, error) {
		return strings.ToUpper(strings.Join(args, " ")), nil
	})
	return reg
}

func TestSecureExecTask(t *testing.T) {
	h := newSecureHarness(t, true)
	alice := h.secureClient("alice")
	bob := h.secureClient("bob")
	h.join(alice, "pw-alice")
	h.join(bob, "pw-bob")
	bob.EnableSecureTasks(taskRegistry())

	ctx := testCtx(t)
	out, err := alice.SecureExecTask(ctx, bob.PeerID(), "math", "upper", []string{"hello", "world"})
	if err != nil {
		t.Fatalf("SecureExecTask: %v", err)
	}
	if out != "HELLO WORLD" {
		t.Fatalf("out = %q", out)
	}
}

func TestSecureExecTaskUnknownTask(t *testing.T) {
	h := newSecureHarness(t, true)
	alice := h.secureClient("alice")
	bob := h.secureClient("bob")
	h.join(alice, "pw-alice")
	h.join(bob, "pw-bob")
	bob.EnableSecureTasks(taskRegistry())

	ctx := testCtx(t)
	if _, err := alice.SecureExecTask(ctx, bob.PeerID(), "math", "rm-rf", nil); err == nil {
		t.Fatal("unknown task executed")
	}
}

func TestSecureExecTaskRejectsOutsider(t *testing.T) {
	// Carol is valid on the network but in a different group ("art"):
	// the group-membership policy must block her.
	h := newSecureHarness(t, true)
	h.db.Register("carol", "pw-carol", "art")
	alice := h.secureClient("alice")
	carol := h.secureClient("carol")
	h.join(alice, "pw-alice")
	h.join(carol, "pw-carol")
	alice.EnableSecureTasks(taskRegistry())

	ctx := testCtx(t)
	// Carol claims group "math" in her envelope, but alice (the executor)
	// checks her own membership AND carol has no pipe advertisement in
	// math — either way the call must fail.
	if _, err := carol.SecureExecTask(ctx, alice.PeerID(), "math", "upper", []string{"x"}); err == nil {
		t.Fatal("outsider executed a secure task")
	}
}

func TestSecureExecTaskRejectsPlainEnvelope(t *testing.T) {
	// A request in alice's name whose header carries no signature, sealed
	// to bob's certified key as any peer can seal one, is refused before
	// anything is looked up: executable primitives demand source
	// authentication, and an unsigned header opens nowhere.
	h := newSecureHarness(t, true)
	alice := h.secureClient("alice")
	bob := h.secureClient("bob")
	h.join(alice, "pw-alice")
	h.join(bob, "pw-bob")
	bob.EnableSecureTasks(taskRegistry())

	body := []byte("upper\x1ex")
	header := attack.NewHeader(core.ModeFull, alice.PeerID(), "math", body)
	fp, err := bob.Identity().Keys.Public().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	header.To = fp[:]
	wire, err := attack.EnvelopeTo(bob.Identity().Keys.Public(), attack.Block(header.Bytes(), body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := alice.Endpoint().Request(testCtx(t), bob.PeerID(), proto.SecureTaskService, endpoint.NewMessage().Add(proto.ElemEnvelope, wire), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok, token := proto.IsOK(resp); ok || token != proto.ErrBadRequest {
		t.Fatalf("unsigned task request answered ok=%v token=%q, want a bad-request refusal", ok, token)
	}
}

func TestSecureTaskResponseAuthenticated(t *testing.T) {
	// The response envelope is signed by the executor; requester verifies.
	h := newSecureHarness(t, true)
	alice := h.secureClient("alice")
	bob := h.secureClient("bob")
	h.join(alice, "pw-alice")
	h.join(bob, "pw-bob")
	bob.EnableSecureTasks(taskRegistry())

	ctx := testCtx(t)
	out, err := alice.SecureExecTask(ctx, bob.PeerID(), "math", "upper", []string{"ok"})
	if err != nil {
		t.Fatal(err)
	}
	if out != "OK" {
		t.Fatalf("out = %q", out)
	}
}
