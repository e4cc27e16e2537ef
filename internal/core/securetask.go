package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/taskexec"
)

// This file implements the paper's stated further work: extending the
// security building blocks to the executable set of primitives. The
// approach is exactly the one §6 prescribes — "any message exchange can
// be secured using an approach similar to that defined for messenger
// primitives": the task request and its response both travel inside the
// sign-then-encrypt envelope, with key distribution via signed pipe
// advertisements. The response names its request: the SHA-256 of the
// request's signed header leads the signed body, so that no other answer of
// the executor's — an earlier one replayed under this request's
// correlation ID, which crosses the wire in the clear — passes for it.

// ErrTaskRejected is a secure task refused by the executing peer.
var ErrTaskRejected = errors.New("core: secure task rejected")

// taskBodySep separates the task name from its packed arguments inside
// the envelope body.
const taskBodySep = "\x1e"

// EnableSecureTasks serves signed+encrypted task execution requests from
// group members, executing them against the registry. Plain (unsigned)
// task requests remain served — or not — by taskexec.Service; this
// handler only accepts authenticated ones.
func (s *SecureClient) EnableSecureTasks(reg *taskexec.Registry) {
	s.Endpoint().RegisterHandler(proto.SecureTaskService, func(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
		return s.handleSecureTask(from, msg, reg)
	})
}

func (s *SecureClient) handleSecureTask(_ keys.PeerID, msg *endpoint.Message, reg *taskexec.Registry) *endpoint.Message {
	wire, ok := msg.Get(proto.ElemEnvelope)
	if !ok {
		return proto.Fail(proto.ErrBadRequest)
	}
	// The open path of the messenger primitives, envelopes only, under
	// the same replay guard: a captured request re-sent verbatim must not
	// run the task again.
	var buf Opened
	opened, err := openWire(&buf, s.kp, wire, formEnvelope, nil, s.replayGuard, nil, s.Now())
	if err != nil {
		return proto.Fail(proto.ErrBadRequest)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sender, err := s.senderKey(ctx, opened.Sender, opened.Group)
	if err != nil {
		return proto.Fail(proto.ErrBadCredential)
	}
	senderKey := sender.Signer.Key
	if err := opened.VerifySignature(senderKey); err != nil {
		return proto.Fail(proto.ErrBadSignature)
	}
	// Authorization: the caller must share the group it claims.
	if !slices.Contains(s.Groups(), opened.Group) {
		return proto.Fail("unauthorized")
	}

	name, args, ok := splitTaskBody(string(opened.Body))
	if !ok {
		return proto.Fail(proto.ErrBadRequest)
	}
	out, err := reg.Run(name, args)
	if err != nil {
		return proto.Fail(err.Error())
	}
	// Seal the result back to the caller's certified key, behind the name
	// of the request it answers.
	request := sha256.Sum256(opened.Header())
	sealed, err := seal(s.kp, &header{sender: s.PeerID(), group: opened.Group, at: s.Now().UnixNano()}, append(request[:], out...), senderKey)
	if err != nil {
		return proto.Fail(proto.ErrBadRequest)
	}
	return proto.OK().Add(proto.ElemEnvelope, sealed.Bytes())
}

// SecureExecTask runs a task on a remote group member with both request
// and response protected by the secure envelope.
func (s *SecureClient) SecureExecTask(ctx context.Context, peer keys.PeerID, group, task string, args []string) (string, error) {
	recipientKey, _, err := s.verifiedPeerKey(ctx, peer, group)
	if err != nil {
		return "", err
	}
	body := task + taskBodySep + taskexec.PackArgs(args)
	h := header{sender: s.PeerID(), group: group, at: s.Now().UnixNano()}
	sealed, err := seal(s.kp, &h, endpoint.ReadOnlyBytes(body), recipientKey)
	if err != nil {
		return "", err
	}
	// seal left the signed header whole in h: written out again, it is the
	// header the executor opens, and its digest the name the answer must carry.
	signed, err := appendHeader(nil, &h, nil)
	if err != nil {
		return "", err
	}
	request := sha256.Sum256(signed)
	msg := endpoint.NewMessage().Add(proto.ElemEnvelope, sealed.Bytes())
	resp, err := s.Endpoint().Request(ctx, peer, proto.SecureTaskService, msg, 0)
	if err != nil {
		return "", err
	}
	if ok, errToken := proto.IsOK(resp); !ok {
		return "", fmt.Errorf("%w: %s", ErrTaskRejected, errToken)
	}
	wire, ok := resp.Get(proto.ElemEnvelope)
	if !ok {
		return "", ErrTaskRejected
	}
	var buf Opened
	opened, err := openWire(&buf, s.kp, wire, formEnvelope, nil, nil, nil, s.Now()) // the response frame is this caller's own
	if err != nil {
		return "", err
	}
	if err := opened.VerifySignature(recipientKey); err != nil {
		return "", fmt.Errorf("%w: response %v", ErrTaskRejected, err)
	}
	if len(opened.Body) < sha256.Size || !bytes.Equal(opened.Body[:sha256.Size], request[:]) {
		return "", fmt.Errorf("%w: the response answers another request", ErrTaskRejected)
	}
	return string(opened.Body[sha256.Size:]), nil
}

func splitTaskBody(body string) (name string, args []string, ok bool) {
	idx := strings.Index(body, taskBodySep)
	if idx < 0 {
		return "", nil, false
	}
	return body[:idx], taskexec.UnpackArgs(body[idx+1:]), true
}
