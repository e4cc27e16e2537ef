// File sharing scenario: several peers share course material with a
// group, search the broker's global index by keyword, download in
// integrity-checked chunks (including through the broker relay when the
// peers are NATed from each other), and observe the file-index events.
//
//	go run ./examples/filesharing
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/filesvc"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/userdb"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	net := simnet.NewNetwork(simnet.ProfileLAN)
	defer net.Close()
	db := userdb.NewStore()
	for _, u := range []string{"ana", "bo", "cy"} {
		db.Register(u, u+"-pw", "seminar")
	}
	br, err := broker.New(broker.Config{
		Name: "file-broker", PeerID: keys.LegacyPeerID("file-broker"), Net: net,
		DB: broker.LocalDB(db),
	})
	if err != nil {
		return err
	}
	defer br.Close()

	join := func(alias string) (*client.Client, *filesvc.Service, error) {
		cl, err := client.New(net, membership.NewNone(), alias)
		if err != nil {
			return nil, nil, err
		}
		if err := cl.Connect(ctx, br.PeerID()); err != nil {
			return nil, nil, err
		}
		if err := cl.Login(ctx, alias+"-pw"); err != nil {
			return nil, nil, err
		}
		return cl, filesvc.New(cl), nil
	}

	ana, anaFiles, err := join("ana")
	if err != nil {
		return err
	}
	defer ana.Close()
	bo, boFiles, err := join("bo")
	if err != nil {
		return err
	}
	defer bo.Close()
	cy, cyFiles, err := join("cy")
	if err != nil {
		return err
	}
	defer cy.Close()

	// cy learns about new shared material through file-index events.
	indexUpdates := make(chan events.Event, 8)
	cy.Bus().Subscribe(events.FileIndexUpdated, func(e events.Event) { indexUpdates <- e })

	// ana and bo each share files with the seminar.
	slides := bytes.Repeat([]byte("slide content / "), 8000) // ~128 KiB, multi-chunk
	if err := anaFiles.Share(ctx, "seminar", "p2p-slides.bin", slides); err != nil {
		return err
	}
	if err := anaFiles.Share(ctx, "seminar", "reading-list.txt", []byte("JXTA spec; CBID paper; XMLdsig")); err != nil {
		return err
	}
	if err := boFiles.Share(ctx, "seminar", "p2p-notes.txt", []byte("broker = super peer")); err != nil {
		return err
	}
	fmt.Println("ana shares:", names(anaFiles.Shared("seminar")))
	fmt.Println("bo  shares:", names(boFiles.Shared("seminar")))

	select {
	case e := <-indexUpdates:
		fmt.Printf("cy observed a file-index update from %.24s...\n", e.From)
	case <-ctx.Done():
		return ctx.Err()
	}

	// Keyword search hits both sharers.
	results, err := cyFiles.Search(ctx, "p2p", "seminar")
	if err != nil {
		return err
	}
	fmt.Printf("cy searched \"p2p\": %d hit(s)\n", len(results))
	for _, r := range results {
		fmt.Printf("  %-18s %7d bytes  at %.24s...\n", r.File.Name, r.File.Size, r.Peer)
	}

	// NAT cy away from ana: the download must flow through the broker
	// relay, chunk by chunk, and still verify.
	net.SetReachable(simnet.NodeID(cy.PeerID()), simnet.NodeID(ana.PeerID()), false)
	data, err := cyFiles.Download(ctx, ana.PeerID(), "p2p-slides.bin")
	if err != nil {
		return err
	}
	fmt.Printf("cy downloaded p2p-slides.bin through the broker relay: %d bytes, %d chunks, digest ok\n",
		len(data), (len(data)+filesvc.ChunkSize-1)/filesvc.ChunkSize)

	// Withdrawing a file removes it from the network.
	if err := anaFiles.Unshare(ctx, "seminar", "p2p-slides.bin"); err != nil {
		return err
	}
	if _, err := cyFiles.Download(ctx, ana.PeerID(), "p2p-slides.bin"); err != nil {
		fmt.Println("after unshare, the download fails as expected:", short(err))
	} else {
		return fmt.Errorf("download of unshared file succeeded")
	}
	return nil
}

func names(entries []advert.FileEntry) []string {
	var out []string
	for _, e := range entries {
		out = append(out, e.Name)
	}
	return out
}

func short(err error) string {
	s := err.Error()
	if i := strings.LastIndexByte(s, ':'); i > 0 {
		return strings.TrimSpace(s[i+1:])
	}
	return s
}
