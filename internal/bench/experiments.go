package bench

import (
	"context"
	"fmt"
	"time"

	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/simnet"
)

// JoinResult is one row of experiment E1 (§5: network-join overhead).
type JoinResult struct {
	KeyBits     int
	Plain       OpCost
	Secure      OpCost
	PlainTotal  time.Duration
	SecureTotal time.Duration
	OverheadPct float64
}

// RunJoin measures connect+login vs secureConnection+secureLogin, each
// averaged over iters fresh sessions, and reprices both under profile.
func RunJoin(env *Env, profile simnet.LinkProfile, iters int) (*JoinResult, error) {
	alias, password, err := env.AddUser()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	// Only the join itself is timed (§5 measures "time overhead until a
	// client peer joins the network"); the logout that resets state for
	// the next iteration happens outside the measured window.
	plain, err := avgCost(iters, func() (OpCost, error) {
		cl, err := env.PlainClient(alias)
		if err != nil {
			return OpCost{}, err
		}
		defer cl.Close()
		cost, err := env.Measure(func() error {
			if err := cl.Connect(ctx, env.Broker.PeerID()); err != nil {
				return err
			}
			return cl.Login(ctx, password)
		})
		if err != nil {
			return OpCost{}, err
		}
		return cost, cl.Logout(ctx)
	})
	if err != nil {
		return nil, fmt.Errorf("bench: plain join: %w", err)
	}

	secure, err := avgCost(iters, func() (OpCost, error) {
		sc, err := env.SecureClient(alias)
		if err != nil {
			return OpCost{}, err
		}
		defer sc.Close()
		cost, err := env.Measure(func() error {
			return sc.Join(ctx, env.Broker.PeerID(), password)
		})
		if err != nil {
			return OpCost{}, err
		}
		return cost, sc.Logout(ctx)
	})
	if err != nil {
		return nil, fmt.Errorf("bench: secure join: %w", err)
	}

	res := &JoinResult{
		KeyBits:     env.keyBits,
		Plain:       plain,
		Secure:      secure,
		PlainTotal:  plain.Total(profile),
		SecureTotal: secure.Total(profile),
	}
	res.OverheadPct = Overhead(res.PlainTotal, res.SecureTotal)
	return res, nil
}

// MsgPoint is one point of experiment F2 (Figure 2: secureMsgPeer
// overhead vs message size).
type MsgPoint struct {
	Size        int
	Plain       OpCost
	Secure      OpCost
	PlainTotal  time.Duration
	SecureTotal time.Duration
	OverheadPct float64
}

// RunMsgSeries measures sendMsgPeer vs secureMsgPeer end-to-end
// (send → receive event) for each payload size and reprices under
// profile. The same sessions are reused across sizes, as a chat
// application would.
func RunMsgSeries(env *Env, profile simnet.LinkProfile, sizes []int, iters int) ([]MsgPoint, error) {
	ctx := context.Background()

	// Plain pair.
	aliasA, pwA, err := env.AddUser()
	if err != nil {
		return nil, err
	}
	aliasB, pwB, err := env.AddUser()
	if err != nil {
		return nil, err
	}
	pa, err := env.PlainClient(aliasA)
	if err != nil {
		return nil, err
	}
	defer pa.Close()
	pb, err := env.PlainClient(aliasB)
	if err != nil {
		return nil, err
	}
	defer pb.Close()
	for _, step := range []func() error{
		func() error { return pa.Connect(ctx, env.Broker.PeerID()) },
		func() error { return pa.Login(ctx, pwA) },
		func() error { return pb.Connect(ctx, env.Broker.PeerID()) },
		func() error { return pb.Login(ctx, pwB) },
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	plainGot := make(chan struct{}, 256)
	cancelPlain := pb.Bus().Subscribe(events.MessageReceived, func(events.Event) {
		plainGot <- struct{}{}
	})
	defer cancelPlain()

	// Secure pair.
	aliasC, pwC, err := env.AddUser()
	if err != nil {
		return nil, err
	}
	aliasD, pwD, err := env.AddUser()
	if err != nil {
		return nil, err
	}
	sa, err := env.SecureClient(aliasC)
	if err != nil {
		return nil, err
	}
	defer sa.Close()
	sb, err := env.SecureClient(aliasD)
	if err != nil {
		return nil, err
	}
	defer sb.Close()
	for _, step := range []func() error{
		func() error { return sa.Join(ctx, env.Broker.PeerID(), pwC) },
		func() error { return sb.Join(ctx, env.Broker.PeerID(), pwD) },
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	secGot := make(chan struct{}, 256)
	cancelSec := sb.Bus().Subscribe(events.SecureMessage, func(events.Event) {
		secGot <- struct{}{}
	})
	defer cancelSec()

	// Warm both paths so pipe advertisement resolution (which happens on
	// the first message regardless of primitive) is out of the loop.
	if err := pa.SendMsgPeer(ctx, pb.PeerID(), "bench", "warm"); err != nil {
		return nil, err
	}
	if err := waitSignal(plainGot); err != nil {
		return nil, err
	}
	if err := sa.SecureMsgPeer(ctx, sb.PeerID(), "bench", "warm"); err != nil {
		return nil, err
	}
	if err := waitSignal(secGot); err != nil {
		return nil, err
	}

	var out []MsgPoint
	for _, size := range sizes {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte('a' + i%26)
		}
		text := string(payload)

		plain, err := avgCost(iters, func() (OpCost, error) {
			return env.Measure(func() error {
				if err := pa.SendMsgPeer(ctx, pb.PeerID(), "bench", text); err != nil {
					return err
				}
				return waitSignal(plainGot)
			})
		})
		if err != nil {
			return nil, fmt.Errorf("bench: plain msg size %d: %w", size, err)
		}
		secure, err := avgCost(iters, func() (OpCost, error) {
			return env.Measure(func() error {
				if err := sa.SecureMsgPeer(ctx, sb.PeerID(), "bench", text); err != nil {
					return err
				}
				return waitSignal(secGot)
			})
		})
		if err != nil {
			return nil, fmt.Errorf("bench: secure msg size %d: %w", size, err)
		}
		p := MsgPoint{
			Size:        size,
			Plain:       plain,
			Secure:      secure,
			PlainTotal:  plain.Total(profile),
			SecureTotal: secure.Total(profile),
		}
		p.OverheadPct = Overhead(p.PlainTotal, p.SecureTotal)
		out = append(out, p)
	}
	return out, nil
}

func waitSignal(ch <-chan struct{}) error {
	select {
	case <-ch:
		return nil
	case <-time.After(30 * time.Second):
		return fmt.Errorf("bench: timed out waiting for delivery")
	}
}

// GroupResult is one row of ablation A3 (group fan-out).
type GroupResult struct {
	GroupSize   int
	Plain       time.Duration
	Secure      time.Duration
	OverheadPct float64
}

// RunGroupFanOut measures sendMsgPeerGroup vs secureMsgPeerGroup for
// increasing group sizes under profile. Wire time is repriced as for the
// other experiments; iterated unicast means frames scale linearly with
// the group size, exactly the cost §4.3.1 accepts.
func RunGroupFanOut(env *Env, profile simnet.LinkProfile, groupSizes []int, iters int) ([]GroupResult, error) {
	ctx := context.Background()
	var out []GroupResult
	for _, n := range groupSizes {
		// Separate plain and secure groups so the member lists (and thus
		// the fan-out sets) stay disjoint and equal-sized.
		plainGroup := fmt.Sprintf("fanp%02d", n)
		secGroup := fmt.Sprintf("fans%02d", n)

		var plainSender *client.Client
		var secSender *core.SecureClient
		var closers []func()
		for i := 0; i < n; i++ {
			aliasP, pwP, err := env.AddUser(plainGroup)
			if err != nil {
				return nil, err
			}
			pcl, err := env.PlainClient(aliasP)
			if err != nil {
				return nil, err
			}
			closers = append(closers, pcl.Close)
			if err := pcl.Connect(ctx, env.Broker.PeerID()); err != nil {
				return nil, err
			}
			if err := pcl.Login(ctx, pwP); err != nil {
				return nil, err
			}
			if i == 0 {
				plainSender = pcl
			}

			aliasS, pwS, err := env.AddUser(secGroup)
			if err != nil {
				return nil, err
			}
			scl, err := env.SecureClient(aliasS)
			if err != nil {
				return nil, err
			}
			closers = append(closers, scl.Close)
			if err := scl.Join(ctx, env.Broker.PeerID(), pwS); err != nil {
				return nil, err
			}
			if i == 0 {
				secSender = scl
			}
		}

		plain, err := avgCost(iters, func() (OpCost, error) {
			return env.Measure(func() error {
				_, err := plainSender.SendMsgPeerGroup(ctx, plainGroup, "fanout")
				return err
			})
		})
		if err != nil {
			return nil, err
		}
		secure, err := avgCost(iters, func() (OpCost, error) {
			return env.Measure(func() error {
				_, err := secSender.SecureMsgPeerGroup(ctx, secGroup, "fanout")
				return err
			})
		})
		if err != nil {
			return nil, err
		}
		res := GroupResult{
			GroupSize: n,
			Plain:     plain.Total(profile),
			Secure:    secure.Total(profile),
		}
		res.OverheadPct = Overhead(res.Plain, res.Secure)
		out = append(out, res)
		for _, c := range closers {
			c()
		}
	}
	return out, nil
}
