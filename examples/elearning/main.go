// E-learning scenario: the workload that motivated JXTA-Overlay
// (Matsuo et al., "Implementation of a JXTA-based P2P e-learning
// system"). A teacher and students are organized into overlapping
// classroom groups; the teacher distributes material via file sharing,
// students chat securely within their group, presence tracks who is in
// class, and the teacher runs a (secured) remote task on a student peer
// — the executable primitive the paper flags as security-critical.
//
//	go run ./examples/elearning
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/filesvc"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/taskexec"
	"jxtaoverlay/internal/userdb"
)

type participant struct {
	sc    *core.SecureClient
	files *filesvc.Service
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	net := simnet.NewNetwork(simnet.ProfileLAN)
	defer net.Close()
	dep, err := core.NewDeployment("school-admin", 0)
	if err != nil {
		return err
	}

	// Roster: the teacher belongs to both classes (overlapping groups).
	db := userdb.NewStore()
	db.Register("teacher", "t-pw", "algebra", "geometry")
	db.Register("ann", "a-pw", "algebra")
	db.Register("ben", "b-pw", "algebra")
	db.Register("gil", "g-pw", "geometry")

	site, err := dep.StartBroker(
		broker.Config{Name: "school-broker", Net: net, DB: broker.LocalDB(db), RequireSecureLogin: true},
		core.BrokerConfig{RequireSignedAdvs: true})
	if err != nil {
		return err
	}
	defer site.Close()

	join := func(alias, password string) (*participant, error) {
		sc, err := dep.NewClient(net, alias)
		if err != nil {
			return nil, err
		}
		if err := sc.Join(ctx, site.Broker.PeerID(), password); err != nil {
			sc.Close()
			return nil, err
		}
		return &participant{sc: sc, files: filesvc.New(sc.Client)}, nil
	}

	teacher, err := join("teacher", "t-pw")
	if err != nil {
		return err
	}
	defer teacher.sc.Close()
	ann, err := join("ann", "a-pw")
	if err != nil {
		return err
	}
	defer ann.sc.Close()
	ben, err := join("ben", "b-pw")
	if err != nil {
		return err
	}
	defer ben.sc.Close()
	gil, err := join("gil", "g-pw")
	if err != nil {
		return err
	}
	defer gil.sc.Close()
	fmt.Println("class joined; teacher groups:", teacher.sc.Groups())

	// Presence: who is in algebra right now?
	peers, err := teacher.sc.GetOnlinePeers(ctx, "algebra")
	if err != nil {
		return err
	}
	var names []string
	for _, p := range peers {
		names = append(names, p.Username)
	}
	fmt.Println("algebra attendance:", strings.Join(names, ", "))

	// The teacher distributes the lecture to the algebra group.
	lecture := []byte(strings.Repeat("theorem; proof; exercise. ", 2000))
	if err := teacher.files.Share(ctx, "algebra", "lecture-3.txt", lecture); err != nil {
		return err
	}
	hits, err := ann.files.Search(ctx, "lecture", "algebra")
	if err != nil {
		return err
	}
	if len(hits) == 0 {
		return fmt.Errorf("ann found no lecture material")
	}
	data, err := ann.files.Download(ctx, hits[0].Peer, hits[0].File.Name)
	if err != nil {
		return err
	}
	fmt.Printf("ann downloaded %q (%d bytes, digest-verified)\n", hits[0].File.Name, len(data))

	// Secure classroom chat: ben asks a question to the algebra group.
	annGot := make(chan events.Event, 4)
	ann.sc.Bus().Subscribe(events.SecureMessage, func(e events.Event) { annGot <- e })
	if _, err := ben.sc.SecureMsgPeerGroup(ctx, "algebra", "is exercise 2 due friday?"); err != nil {
		return err
	}
	select {
	case e := <-annGot:
		fmt.Printf("ann sees classmate %s ask: %q\n", e.Attr("user"), e.Data)
	case <-ctx.Done():
		return ctx.Err()
	}

	// Group isolation: gil (geometry only) cannot message algebra peers.
	if err := gil.sc.SecureMsgPeer(ctx, ann.sc.PeerID(), "algebra", "psst"); err != nil {
		fmt.Println("gil cannot reach the algebra group:", errShort(err))
	} else {
		return fmt.Errorf("group isolation failed: gil reached algebra")
	}

	// The executable primitive, secured: the teacher asks ann's peer to
	// run a grading task. The request and response both travel inside
	// the sign-then-encrypt envelope and ann's peer verifies the caller
	// shares the group.
	reg := taskexec.NewRegistry()
	reg.Register("grade", func(args []string) (string, error) {
		return fmt.Sprintf("submission %q graded: A", strings.Join(args, " ")), nil
	})
	ann.sc.EnableSecureTasks(reg)
	out, err := teacher.sc.SecureExecTask(ctx, ann.sc.PeerID(), "algebra", "grade", []string{"exercise-2"})
	if err != nil {
		return err
	}
	fmt.Println("secure remote task on ann's peer:", out)

	// Statistics primitives close the session.
	if err := ann.sc.PublishStats(ctx, "algebra"); err != nil {
		return err
	}
	stats, err := teacher.sc.GetPeerStats(ctx, ann.sc.PeerID(), "algebra")
	if err != nil {
		return err
	}
	fmt.Printf("ann's session stats: sent=%d recv=%d uptime=%ds\n",
		stats.MsgsSent, stats.MsgsRecv, stats.UptimeSec)
	return nil
}

func errShort(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, ':'); i > 0 {
		return s[:i]
	}
	return s
}
