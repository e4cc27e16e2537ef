// Command admin is the JXTA-Overlay administrator tool (paper §4.1): it
// generates the deployment's cryptographic material and manages the
// central database's user records on disk.
//
// Subcommands:
//
//	admin init    -dir deploy/                      generate admin key + anchor credential
//	admin broker  -dir deploy/ -name broker-1       issue a broker key + credential
//	admin adduser -dir deploy/ -user alice -pass pw -groups math,art
//	admin users   -dir deploy/                      list registered users
//	admin metrics -url localhost:9090               snapshot a broker's telemetry
//	admin trace   -url localhost:9090               dump captured message-lifecycle traces
//	admin audit   -url localhost:9090               tail a broker's security audit log
//	admin audit verify -dir audit/                  verify an audit journal's hash chain + checkpoints
package main

import (
	"context"
	"flag"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/telemetry"
	"jxtaoverlay/internal/trace"
	"jxtaoverlay/internal/userdb"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "init":
		err = cmdInit(os.Args[2:])
	case "broker":
		err = cmdBroker(os.Args[2:])
	case "adduser":
		err = cmdAddUser(os.Args[2:])
	case "users":
		err = cmdUsers(os.Args[2:])
	case "metrics":
		err = cmdMetrics(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "audit":
		err = cmdAudit(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "admin:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: admin <init|broker|adduser|users|metrics|trace|audit> [flags]
  init    -dir DIR [-name admin] [-bits 1024]
  broker  -dir DIR -name NAME [-validity 8760h]
  adduser -dir DIR -user USER -pass PASS [-groups g1,g2]
  users   -dir DIR
  metrics -url HOST:PORT [-timeout 5s]
  trace   -url HOST:PORT [-trace HEXID] [-stage NAME] [-outcome NAME] [-min DUR] [-timeout 5s]
  audit   -url HOST:PORT [-kind NAME] [-peer ID] [-op NAME] [-trace HEXID] [-since SEQ] [-limit N]
  audit verify -dir DIR [-anchor FILE] [-expect-head DIGEST] [-expect-seq N]`)
	os.Exit(2)
}

const (
	adminKeyFile = "admin.key.pem"
	usersFile    = "users.json"
)

func cmdInit(args []string) error {
	fs := flag.NewFlagSet("init", flag.ExitOnError)
	dir := fs.String("dir", "deploy", "deployment directory")
	name := fs.String("name", "admin", "administrator name")
	bits := fs.Int("bits", keys.DefaultRSABits, "RSA modulus size")
	fs.Parse(args)

	if err := os.MkdirAll(*dir, 0o700); err != nil {
		return err
	}
	kp, err := keys.KeyPairBits(*bits)
	if err != nil {
		return err
	}
	pemBytes, err := kp.MarshalPEM()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*dir, adminKeyFile), pemBytes, 0o600); err != nil {
		return err
	}
	dep, err := core.NewDeploymentFromKey(kp, *name)
	if err != nil {
		return err
	}
	anchorDoc, err := dep.Anchor().Document()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*dir, "anchor.cred.xml"), anchorDoc.Canonical(), 0o644); err != nil {
		return err
	}
	db := userdb.NewStore()
	if err := db.SaveFile(filepath.Join(*dir, usersFile)); err != nil {
		return err
	}
	fmt.Printf("deployment initialized in %s (admin id %s)\n", *dir, dep.AdminID())
	return nil
}

func loadDeployment(dir string) (*core.Deployment, error) {
	pemBytes, err := os.ReadFile(filepath.Join(dir, adminKeyFile))
	if err != nil {
		return nil, fmt.Errorf("read admin key (run 'admin init' first): %w", err)
	}
	kp, err := keys.ParseKeyPairPEM(pemBytes)
	if err != nil {
		return nil, err
	}
	return core.NewDeploymentFromKey(kp, "admin")
}

func cmdBroker(args []string) error {
	fs := flag.NewFlagSet("broker", flag.ExitOnError)
	dir := fs.String("dir", "deploy", "deployment directory")
	name := fs.String("name", "", "broker deployment name")
	validity := fs.Duration("validity", 365*24*time.Hour, "credential validity")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("broker: -name is required")
	}
	dep, err := loadDeployment(*dir)
	if err != nil {
		return err
	}
	kp, err := keys.NewKeyPair()
	if err != nil {
		return err
	}
	crd, err := dep.IssueBrokerCredential(kp.Public(), *name, *validity)
	if err != nil {
		return err
	}
	pemBytes, err := kp.MarshalPEM()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*dir, *name+".key.pem"), pemBytes, 0o600); err != nil {
		return err
	}
	credDoc, err := crd.Document()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*dir, *name+".cred.xml"), credDoc.Canonical(), 0o644); err != nil {
		return err
	}
	fmt.Printf("broker %q credentialed (id %s, valid until %s)\n", *name, crd.Subject, crd.NotAfter.Format(time.RFC3339))
	return nil
}

func cmdAddUser(args []string) error {
	fs := flag.NewFlagSet("adduser", flag.ExitOnError)
	dir := fs.String("dir", "deploy", "deployment directory")
	user := fs.String("user", "", "username")
	pass := fs.String("pass", "", "password")
	groups := fs.String("groups", "", "comma-separated groups")
	fs.Parse(args)
	if *user == "" || *pass == "" {
		return fmt.Errorf("adduser: -user and -pass are required")
	}
	db := userdb.NewStore()
	path := filepath.Join(*dir, usersFile)
	if err := db.LoadFile(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	var groupList []string
	if *groups != "" {
		groupList = strings.Split(*groups, ",")
	}
	if err := db.Register(*user, *pass, groupList...); err != nil {
		return err
	}
	if err := db.SaveFile(path); err != nil {
		return err
	}
	fmt.Printf("user %q registered (groups %v)\n", *user, groupList)
	return nil
}

func cmdUsers(args []string) error {
	fs := flag.NewFlagSet("users", flag.ExitOnError)
	dir := fs.String("dir", "deploy", "deployment directory")
	fs.Parse(args)
	db := userdb.NewStore()
	if err := db.LoadFile(filepath.Join(*dir, usersFile)); err != nil {
		return err
	}
	for _, name := range db.Usernames() {
		groups, _ := db.Groups(name)
		fmt.Printf("%-16s groups=%v\n", name, groups)
	}
	return nil
}

// cmdMetrics pulls one telemetry snapshot from a running broker
// process (e.g. `overlaysim -metrics localhost:9090`) and renders it
// as the same text exposition the endpoint itself serves.
func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	url := fs.String("url", "localhost:9090", "metrics endpoint (host:port or full URL)")
	timeout := fs.Duration("timeout", 5*time.Second, "fetch timeout")
	fs.Parse(args)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	var samples []telemetry.Sample
	if err := fetchJSON(ctx, *url, "/metrics.json", nil, &samples); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	return telemetry.RenderText(os.Stdout, samples)
}

// cmdTrace pulls the span capture buffer from a running process (e.g.
// `overlaysim -trace-sample 1 -metrics localhost:9090`) and renders a
// per-trace stage waterfall: spans grouped by trace ID, ordered by
// start time, each with its offset from the trace's first span.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	endpoint := fs.String("url", "localhost:9090", "trace endpoint (host:port or full URL)")
	traceID := fs.String("trace", "", "only the trace with this hex ID")
	stage := fs.String("stage", "", "only spans of this lifecycle stage (e.g. seal, wal-fsync, open)")
	outcome := fs.String("outcome", "", "only spans with this outcome (e.g. ok, rate-limited, security-alert)")
	minDur := fs.Duration("min", 0, "only spans at least this slow")
	timeout := fs.Duration("timeout", 5*time.Second, "fetch timeout")
	fs.Parse(args)

	q := url.Values{}
	if *traceID != "" {
		q.Set("trace", *traceID)
	}
	if *stage != "" {
		q.Set("stage", *stage)
	}
	if *outcome != "" {
		q.Set("outcome", *outcome)
	}
	if *minDur > 0 {
		q.Set("min_ms", fmt.Sprintf("%g", float64(*minDur)/float64(time.Millisecond)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	var page trace.PageJSON
	if err := fetchJSON(ctx, *endpoint, "/debug/traces", q, &page); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Printf("%d spans recorded, %d dropped, %d matched\n", page.Recorded, page.Dropped, len(page.Spans))
	renderWaterfalls(os.Stdout, page.Spans)
	return nil
}

// renderWaterfalls groups spans by trace and prints each trace's stage
// timeline. Traces print in order of their first span's start time.
func renderWaterfalls(w *os.File, spans []trace.SpanJSON) {
	byTrace := map[string][]trace.SpanJSON{}
	var order []string
	for _, sp := range spans {
		if _, seen := byTrace[sp.Trace]; !seen {
			order = append(order, sp.Trace)
		}
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	sort.Slice(order, func(i, j int) bool {
		return byTrace[order[i]][0].StartNS < byTrace[order[j]][0].StartNS
	})
	for _, id := range order {
		ss := byTrace[id]
		sort.Slice(ss, func(i, j int) bool { return ss[i].StartNS < ss[j].StartNS })
		t0 := ss[0].StartNS
		// Span of the whole trace: last end minus first start.
		endNS := t0
		anomalous := false
		for _, sp := range ss {
			if e := sp.StartNS + int64(sp.DurationMS*float64(time.Millisecond)); e > endNS {
				endNS = e
			}
			if sp.Outcome != "ok" && sp.Outcome != "error" {
				anomalous = true
			}
		}
		mark := ""
		if anomalous {
			mark = "  !"
		}
		fmt.Fprintf(w, "\ntrace %s  %d spans  %.3fms%s\n", id, len(ss), float64(endNS-t0)/float64(time.Millisecond), mark)
		for _, sp := range ss {
			offMS := float64(sp.StartNS-t0) / float64(time.Millisecond)
			line := fmt.Sprintf("  +%9.3fms  %-12s %-22s %9.3fms", offMS, sp.Stage, sp.Outcome, sp.DurationMS)
			for _, a := range sp.Attrs {
				line += fmt.Sprintf("  %s=%s", a.Key, a.Value)
			}
			fmt.Fprintln(w, line)
		}
	}
}
