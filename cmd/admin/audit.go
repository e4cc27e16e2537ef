package main

import (
	"context"
	"encoding/base64"
	"encoding/hex"
	"flag"
	"fmt"
	"net/url"
	"os"
	"time"

	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/cred"
)

// cmdAudit is the operator's window into the tamper-evident security
// audit log. `admin audit` tails a running broker's /debug/audit ring;
// `admin audit verify` walks a journal directory offline, re-deriving
// the hash chain and checking every signed checkpoint, and reports the
// exact first bad offset when anything was tampered with.
func cmdAudit(args []string) error {
	if len(args) > 0 && args[0] == "verify" {
		return cmdAuditVerify(args[1:])
	}
	return cmdAuditTail(args)
}

func cmdAuditTail(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	endpoint := fs.String("url", "localhost:9090", "audit endpoint (host:port or full URL)")
	kind := fs.String("kind", "", "only events of this kind (e.g. rate-limited, offense, login)")
	peer := fs.String("peer", "", "only events attributed to this peer ID")
	op := fs.String("op", "", "only events for this operation")
	traceID := fs.String("trace", "", "only events of the trace with this hex ID")
	since := fs.Uint64("since", 0, "only events with a sequence number greater than N")
	limit := fs.Int("limit", 0, "at most N events (0 = server default)")
	timeout := fs.Duration("timeout", 5*time.Second, "fetch timeout")
	fs.Parse(args)

	q := url.Values{}
	if *kind != "" {
		q.Set("kind", *kind)
	}
	if *peer != "" {
		q.Set("peer", *peer)
	}
	if *op != "" {
		q.Set("op", *op)
	}
	if *traceID != "" {
		q.Set("trace", *traceID)
	}
	if *since > 0 {
		q.Set("since", fmt.Sprintf("%d", *since))
	}
	if *limit > 0 {
		q.Set("limit", fmt.Sprintf("%d", *limit))
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	var page audit.PageJSON
	if err := fetchJSON(ctx, *endpoint, "/debug/audit", q, &page); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	// The head/seq line is the trust point: note it down (or archive
	// it) and a later `admin audit verify -expect-seq/-expect-head`
	// makes rollback provable.
	fmt.Printf("seq %d  head %s\n", page.Seq, page.Head)
	fmt.Printf("%d records, %d checkpoints, %d lost; %d events matched\n",
		page.Records, page.Checkpoints, page.Lost, len(page.Events))
	for _, e := range page.Events {
		line := fmt.Sprintf("%8d  %s  %-14s %-18s %-14s %s",
			e.Seq, time.Unix(0, e.TimeNS).Format("15:04:05.000"), e.Kind, e.Peer, e.Op, e.Reason)
		if e.Trace != "" {
			line += "  trace=" + e.Trace
		}
		fmt.Println(line)
	}
	return nil
}

func cmdAuditVerify(args []string) error {
	fs := flag.NewFlagSet("audit verify", flag.ExitOnError)
	dir := fs.String("dir", "", "audit journal directory")
	anchor := fs.String("anchor", "", "anchor credential file (e.g. deploy/anchor.cred, as admin init writes it); checkpoint signers must be brokers chaining to it")
	expectHead := fs.String("expect-head", "", "remembered chain head (hex or base64 as printed by admin audit / /debug/audit)")
	expectSeq := fs.Uint64("expect-seq", 0, "remembered chain sequence number")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("audit verify: -dir is required")
	}

	opts := audit.VerifyOptions{ExpectSeq: *expectSeq}
	if *anchor != "" {
		raw, err := os.ReadFile(*anchor)
		if err != nil {
			return err
		}
		anchorCred, err := cred.Parse(raw) // as admin init wrote it
		if err != nil {
			return fmt.Errorf("audit verify: %s: %w", *anchor, err)
		}
		ts, err := cred.NewTrustStore(anchorCred)
		if err != nil {
			return fmt.Errorf("audit verify: %s: %w", *anchor, err)
		}
		opts.Trust = ts
	}
	if *expectHead != "" {
		head, err := parseHead(*expectHead)
		if err != nil {
			return err
		}
		opts.ExpectHead = head
	}

	report, err := audit.Verify(*dir, opts)
	if err != nil {
		return fmt.Errorf("audit verify: %w", err)
	}
	fmt.Printf("%d segments, %d records (%d events, %d checkpoints), last seq %d\n",
		report.Segments, report.Records, report.Events, report.Checkpoints, report.LastSeq)
	fmt.Printf("head %s\n", hex.EncodeToString(report.Head[:]))
	if report.Checkpoints > 0 {
		fmt.Printf("last checkpoint seq %d signed by %q; %d records unsealed after it\n",
			report.LastCheckpointSeq, report.Signer, report.Unsealed)
	}
	if !report.OK() {
		fmt.Printf("TAMPERED: %s\n", report.Fault)
		os.Exit(1)
	}
	fmt.Println("clean: hash chain and checkpoint signatures verify end to end")
	return nil
}

// parseHead accepts the chain head in either encoding it is printed in:
// hex (admin audit verify output) or base64 (/debug/audit pages).
func parseHead(s string) ([]byte, error) {
	if b, err := hex.DecodeString(s); err == nil && len(b) == audit.HashSize {
		return b, nil
	}
	if b, err := base64.StdEncoding.DecodeString(s); err == nil && len(b) == audit.HashSize {
		return b, nil
	}
	return nil, fmt.Errorf("audit verify: -expect-head is neither a %d-byte hex nor base64 digest", audit.HashSize)
}
