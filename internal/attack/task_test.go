// Secure task replay negative: the executable primitive travels in the
// same sign-then-encrypt envelope as the messenger primitives, so a
// captured request decrypts and verifies again — and, unlike a replayed
// chat line, runs something. The executor's replay guard must cover it.
package attack_test

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"jxtaoverlay/internal/attack"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/taskexec"
	"jxtaoverlay/internal/waituntil"
)

// TestSecureTaskRequestReplay: eve captures alice's SecureExecTask
// request to bob and re-sends the frame verbatim. On an executor built
// WithReplayGuard the second execution is refused and the task body
// runs once; without a guard the stateless primitive runs it again, as
// the messenger primitives accept a replayed message (the paper's
// best-effort design, TestSecureMessageReplay).
func TestSecureTaskRequestReplay(t *testing.T) {
	replay := func(t *testing.T, opts ...core.Option) (runs int64, answer *endpoint.Message) {
		s := newSecureStack(t)
		alice := s.join(t, "alice", "alice-secret-pw")
		bob := s.join(t, "bob", "bob-secret-pw", opts...)
		var ran atomic.Int64
		reg := taskexec.NewRegistry()
		reg.Register("charge", func(args []string) (string, error) {
			ran.Add(1)
			return "charged " + args[0], nil
		})
		bob.EnableSecureTasks(reg)

		eve := attack.NewEavesdropper(s.net)
		out, err := alice.SecureExecTask(testCtx(t), bob.PeerID(), "math", "charge", []string{"42"})
		if err != nil || out != "charged 42" {
			t.Fatalf("genuine request: %q, %v", out, err)
		}
		aliceNode, bobNode := simnet.NodeID(alice.PeerID()), simnet.NodeID(bob.PeerID())
		captured := eve.FramesTo(bobNode)
		answered := len(eve.FramesTo(aliceNode))

		raw, err := attack.NewRawNode(s.net, "attacker-node")
		if err != nil {
			t.Fatal(err)
		}
		for _, frame := range captured {
			_ = raw.Replay(bobNode, frame)
		}
		// Bob answers the replayed request to its claimed source, alice —
		// the only traffic she receives once her own call has returned.
		waituntil.Must(t, 5*time.Second, func() bool {
			return len(eve.FramesTo(aliceNode)) > answered
		}, "the executor never answered the replayed request")
		frames := eve.FramesTo(aliceNode)
		f, err := endpoint.ParseFrame(frames[len(frames)-1])
		if err != nil {
			t.Fatal(err)
		}
		answer = f.Msg
		return ran.Load(), answer
	}

	t.Run("guarded executor refuses", func(t *testing.T) {
		runs, answer := replay(t, core.WithReplayGuard(core.NewReplayGuard(time.Minute, 64)))
		if ok, token := proto.IsOK(answer); ok || token != proto.ErrBadRequest {
			t.Fatalf("replayed request answered ok=%v token=%q, want a bad-request refusal", ok, token)
		}
		if runs != 1 {
			t.Fatalf("task body ran %d times, want 1", runs)
		}
	})
	t.Run("stateless executor runs it again", func(t *testing.T) {
		runs, answer := replay(t)
		if ok, _ := proto.IsOK(answer); !ok || runs != 2 {
			t.Fatalf("unguarded replay: ok=%v, task body ran %d times; the stateless primitive should have run it twice", ok, runs)
		}
	})
}

// TestSecureTaskAnswerSubstitutionRefused: an on-path attacker who captured
// bob's answer to alice's "charge 42" drops his answer to her next request,
// "charge 99", and answers it with the old one under the new request's
// correlation ID, which crosses the wire in the clear. The old answer is
// sealed to alice and signed by bob, and her endpoint hands her call the
// first response that carries the ID; but the answer names the request it
// answers, another one, and the call is refused.
func TestSecureTaskAnswerSubstitutionRefused(t *testing.T) {
	s := newSecureStack(t)
	alice := s.join(t, "alice", "alice-secret-pw")
	bob := s.join(t, "bob", "bob-secret-pw")
	reg := taskexec.NewRegistry()
	reg.Register("charge", func(args []string) (string, error) { return "charged " + args[0], nil })
	bob.EnableSecureTasks(reg)
	aliceNode, bobNode := simnet.NodeID(alice.PeerID()), simnet.NodeID(bob.PeerID())

	eve := attack.NewEavesdropper(s.net)
	if out, err := alice.SecureExecTask(testCtx(t), bob.PeerID(), "math", "charge", []string{"42"}); err != nil || out != "charged 42" {
		t.Fatalf("genuine request: %q, %v", out, err)
	}
	var old endpoint.Frame
	for _, frame := range eve.FramesTo(aliceNode) {
		f, err := endpoint.ParseFrame(frame)
		if err == nil && f.Corr == endpoint.CorrResponse && string(f.Src) == string(bob.PeerID()) && f.Msg.Has(proto.ElemEnvelope) {
			old = f
		}
	}
	if old.Msg == nil {
		t.Fatal("bob's answer never crossed the wire")
	}

	// From here bob's answers to alice are lost, and the attacker answers
	// each task request the moment it is on the wire.
	s.net.SetLinkOneWay(bobNode, aliceNode, simnet.LinkProfile{Loss: 1})
	raw, err := attack.NewRawNode(s.net, "attacker-node")
	if err != nil {
		t.Fatal(err)
	}
	s.net.AddTap(func(p simnet.Packet) {
		if p.From != aliceNode || p.To != bobNode {
			return
		}
		f, err := endpoint.ParseFrame(bytes.Clone(p.Payload))
		if err != nil || f.Corr != endpoint.CorrRequest || string(f.Service) != proto.SecureTaskService {
			return
		}
		_ = raw.Replay(aliceNode, endpoint.NewFrame(endpoint.Route{Src: bob.PeerID(), Service: string(old.Service),
			Corr: endpoint.CorrResponse, CorrID: f.CorrID}, old.Msg.Elements...))
	})
	out, err := alice.SecureExecTask(testCtx(t), bob.PeerID(), "math", "charge", []string{"99"})
	if !errors.Is(err, core.ErrTaskRejected) {
		t.Fatalf("charge 99 returned (%q, %v), want core.ErrTaskRejected", out, err)
	}
}
