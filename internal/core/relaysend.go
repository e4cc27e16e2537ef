package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/trace"
)

// Client-side relay fan-out: the send-once path. Instead of sending the
// round wire to every member (client-side fan-out, O(N^2) bytes up the
// sender's link across a round), the sender verifies each recipient's
// certified key, seals ONE round — one header signature, one content
// encryption, one wrap per recipient — and uploads the wire ONCE to the
// broker's relay, which slices it per recipient and handles presence:
// direct push to online members, bounded store-and-forward queues for
// offline ones. Recipients may therefore be offline at send time, which
// no other messenger primitive in this repo allows.

// SecureMsgPeerGroupRelay fans a secure message over the group's FULL
// membership roster — online and offline members alike — through the
// broker relay. It returns how many recipients were reached immediately
// and how many were queued for delivery at their next login.
func (s *SecureClient) SecureMsgPeerGroupRelay(ctx context.Context, group, text string) (direct, queued int, err error) {
	members, err := s.GetGroupMembers(ctx, group)
	if err != nil {
		return 0, 0, err
	}
	ids := make([]keys.PeerID, 0, len(members))
	for _, m := range members {
		if m.ID != s.PeerID() {
			ids = append(ids, m.ID)
		}
	}
	return s.SecureMsgPeersViaRelay(ctx, group, text, ids)
}

// SecureMsgPeersViaRelay seals one round for the listed peers and
// uploads it once per maxRoundRecipients chunk. Every recipient's
// signed pipe advertisement is verified first (steps 1-3 of §4.3.1,
// cached) — advertisements survive in the broker index while their
// owner is offline, so offline recipients resolve too. Peers whose key
// cannot be verified are skipped and reported via the first error, and
// recipients the broker refuses — unknown to it, or resident at a
// federation partner whose presence events (and queue drains) fire
// elsewhere — surface as a wrapped ErrRelaySkipped: direct+queued then
// falls short of len(peers), never silently.
func (s *SecureClient) SecureMsgPeersViaRelay(ctx context.Context, group, text string, peers []keys.PeerID) (direct, queued int, err error) {
	if len(peers) == 0 {
		return 0, 0, nil
	}
	targets, errs := s.verifiedTargets(ctx, group, peers)
	var roundErr error
	s.sealRounds(group, text, targets, errs, func(d *DetachedRound, chunk []int, tid uint64) {
		resp, rerr := s.Call(ctx, relayRoundMsg(group, peers, d, chunk, tid))
		switch {
		case rerr == nil:
			var di, qi int
			di, qi, rerr = relayCounts(resp, len(chunk))
			direct += di
			queued += qi
		case errors.Is(rerr, client.ErrRelayQuota):
			rerr = ErrRelayQuota
		default:
			rerr = ErrRelayUnavailable
		}
		if roundErr == nil {
			roundErr = rerr
		}
	})
	// Unverifiable recipients (and rounds that failed to seal) are
	// reported ahead of what the relay said about the rest.
	if _, err := tallyFanOut(errs); err != nil {
		return direct, queued, err
	}
	return direct, queued, roundErr
}

// relayRoundMsg is the single upload of one sealed round: one wire for
// the whole chunk, recipient IDs paired in wrap order so the broker can
// address the slices. The round's trace ID rides the upload (Call reuses
// it for the send span) and then every slice cut from the round, tying
// seal, broker dispatch, queueing and the eventual opens into one
// waterfall.
func relayRoundMsg(group string, peers []keys.PeerID, d *DetachedRound, chunk []int, tid uint64) *endpoint.Message {
	idList := make([]string, len(chunk))
	for j, i := range chunk {
		idList[j] = string(peers[i])
	}
	msg := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpRelayRound).
		AddString(proto.ElemGroup, group).
		AddString(proto.ElemRecipients, strings.Join(idList, ",")).
		Add(proto.ElemEnvelope, d.Wire())
	if tid != 0 {
		msg.AddString(proto.ElemTrace, trace.FormatID(tid))
	}
	return msg
}

// relayCounts unpacks a relayRound response: recipients reached
// directly, recipients accepted for eventual delivery (queued locally
// or handed off toward the partner broker that owns them), and an
// error when any were throttled or skipped.
func relayCounts(resp *endpoint.Message, chunkLen int) (direct, queued int, err error) {
	dd, _ := resp.GetString(proto.ElemRelayDirect)
	qq, _ := resp.GetString(proto.ElemRelayQueued)
	hh, _ := resp.GetString(proto.ElemRelayHandoff)
	nn, _ := resp.GetString(proto.ElemRelayQuota)
	ss, _ := resp.GetString(proto.ElemRelaySkipped)
	di, _ := strconv.Atoi(dd)
	qi, _ := strconv.Atoi(qq)
	hi, _ := strconv.Atoi(hh)
	ni, _ := strconv.Atoi(nn)
	si, _ := strconv.Atoi(ss)
	// A handed-off slice is in flight toward the partner broker that
	// owns the recipient — from the sender's seat that is "queued":
	// accepted for eventual delivery, not confirmed received.
	direct = di
	queued = qi + hi
	if ni > 0 {
		return direct, queued, fmt.Errorf("%w: %d of %d throttled", ErrRelayQuota, ni, chunkLen)
	}
	if si > 0 {
		return direct, queued, fmt.Errorf("%w: %d of %d", ErrRelaySkipped, si, chunkLen)
	}
	return direct, queued, nil
}
