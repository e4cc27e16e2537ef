package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"strconv"

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
	return s.SecureMsgPeersViaRelay(ctx, group, text, s.others(members))
}

// SecureMsgPeersViaRelay seals one round for the listed peers and
// uploads it once per maxRoundRecipients chunk. Every recipient's
// signed pipe advertisement is verified first (steps 1-3 of §4.3.1,
// cached) — advertisements survive in the broker index while their
// owner is offline, so offline recipients resolve too. Peers whose key
// cannot be verified are skipped and reported via the first error, and
// recipients the broker refuses as unknown to it surface as a wrapped
// ErrRelaySkipped: direct+queued then falls short of len(peers), never
// silently.
func (s *SecureClient) SecureMsgPeersViaRelay(ctx context.Context, group, text string, peers []keys.PeerID) (direct, queued int, err error) {
	targets, errs := s.verifiedTargets(ctx, group, peers)
	return s.relayRounds(ctx, group, text, peers, targets, errs, s.uploadRound)
}

// relayRounds is the one seal-and-upload body of a relayed send, under
// SecureMsgPeersViaRelay (upload = uploadRound) and SendGroupRelay
// (upload = CallIdempotent, one key per sealed round for all of its
// retries). It seals the rounds of the verified targets and uploads
// each once; after an upload fails it sends no further round.
// Unverifiable recipients (and rounds that failed to seal) are reported
// ahead of a failed upload, and that ahead of what the relay said about
// the rest.
func (s *SecureClient) relayRounds(ctx context.Context, group, text string, peers []keys.PeerID, targets []roundTarget, errs []error,
	upload func(context.Context, *endpoint.Message) (*endpoint.Message, error)) (direct, queued int, err error) {
	var uploadErr, countErr error
	s.sealRounds(group, text, targets, errs, func(d *DetachedRound, chunk []int, tid uint64) {
		if uploadErr != nil {
			return
		}
		resp, err := upload(ctx, relayRoundMsg(group, peers, d, chunk, tid))
		if err != nil {
			uploadErr = err
			return
		}
		di, qi, err := relayCounts(resp, len(chunk))
		direct += di
		queued += qi
		if countErr == nil {
			countErr = err
		}
	})
	_, err = tallyFanOut(errs)
	return direct, queued, cmp.Or(err, uploadErr, countErr)
}

// uploadRound is SecureMsgPeersViaRelay's upload: one broker call, a
// failure reported as ErrRelayQuota or ErrRelayUnavailable.
func (s *SecureClient) uploadRound(ctx context.Context, msg *endpoint.Message) (*endpoint.Message, error) {
	resp, err := s.Call(ctx, msg)
	switch {
	case err == nil:
		return resp, nil
	case errors.Is(err, client.ErrRelayQuota):
		return nil, ErrRelayQuota
	default:
		return nil, ErrRelayUnavailable
	}
}

// others lists the members other than this client, by ID: the
// recipients of a round to a roster.
func (s *SecureClient) others(members []client.PeerSummary) []keys.PeerID {
	ids := make([]keys.PeerID, 0, len(members))
	for _, m := range members {
		if m.ID != s.PeerID() {
			ids = append(ids, m.ID)
		}
	}
	return ids
}

// relayRoundMsg is the single upload of one sealed round: one wire for
// the whole chunk, recipient IDs paired in wrap order so the broker can
// address the slices. The round's trace ID rides the upload (Call reuses
// it for the send span) and then every slice cut from the round, tying
// seal, broker dispatch, queueing and the eventual opens into one
// waterfall.
//
// The ID list is written into one buffer sized up front, and the
// strings go in as views: the request's frame only reads them.
func relayRoundMsg(group string, peers []keys.PeerID, d *DetachedRound, chunk []int, tid uint64) *endpoint.Message {
	n := len(chunk) // room for a comma behind each ID
	for _, i := range chunk {
		n += len(peers[i])
	}
	ids := make([]byte, 0, n)
	for j, i := range chunk {
		if j > 0 {
			ids = append(ids, ',')
		}
		ids = append(ids, peers[i]...)
	}
	msg := endpoint.NewMessage().
		AddString(proto.ElemOp, proto.OpRelayRound).
		AddString(proto.ElemGroup, group).
		Add(proto.ElemRecipients, ids).
		Add(proto.ElemEnvelope, d.Wire())
	if tid != 0 {
		msg.AddString(proto.ElemTrace, trace.FormatID(tid))
	}
	return msg
}

// relayCounts unpacks a relayRound response: recipients reached
// directly, recipients queued for eventual delivery, and an error when
// any were throttled or skipped.
func relayCounts(resp *endpoint.Message, chunkLen int) (direct, queued int, err error) {
	direct, queued = countOf(resp, proto.ElemRelayDirect), countOf(resp, proto.ElemRelayQueued)
	ni, si := countOf(resp, proto.ElemRelayQuota), countOf(resp, proto.ElemRelaySkipped)
	if ni > 0 {
		return direct, queued, fmt.Errorf("%w: %d of %d throttled", ErrRelayQuota, ni, chunkLen)
	}
	if si > 0 {
		return direct, queued, fmt.Errorf("%w: %d of %d", ErrRelaySkipped, si, chunkLen)
	}
	return direct, queued, nil
}

// countOf reads a count element of a relayRound answer where it lies: a
// missing or malformed one reads 0, as strconv.Atoi's error did.
func countOf(resp *endpoint.Message, name string) int {
	v, _ := resp.Get(name)
	n, err := strconv.Atoi(string(v))
	if err != nil {
		return 0
	}
	return n
}
