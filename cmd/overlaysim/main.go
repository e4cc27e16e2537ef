// Command overlaysim runs a complete JXTA-Overlay network in one
// process: an administrator deployment, a broker, the central user
// database, and a population of client peers that join, exchange
// messages, share files and publish statistics. Every event is logged,
// so the tool doubles as a smoke test of the whole stack.
//
// Usage:
//
//	overlaysim [-clients 6] [-secure] [-profile lan] [-messages 3] [-metrics addr] [-v]
//	overlaysim -scenario join-storm|drain-spike|parse-flood|slow-sender|partition-churn [-clients N] [-messages N] [-out summary.json]
//
// With -scenario the tool becomes a scenario driver: it runs one named
// traffic shape against a full in-process deployment and emits a
// schema-stable JSON summary (stdout, or -out FILE) that CI archives
// and gates on. The exit status is the gate: non-zero when the run
// recorded anomalies. -metrics ADDR serves the live telemetry registry
// over HTTP ("/metrics" text, "/metrics.json" snapshot) in either
// mode; `admin metrics -url ADDR` reads it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/broker"
	"jxtaoverlay/internal/client"
	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/events"
	"jxtaoverlay/internal/filesvc"
	"jxtaoverlay/internal/membership"
	"jxtaoverlay/internal/scenario"
	"jxtaoverlay/internal/simnet"
	"jxtaoverlay/internal/telemetry"
	"jxtaoverlay/internal/trace"
	"jxtaoverlay/internal/userdb"
)

func main() {
	nClients := flag.Int("clients", 6, "number of client peers")
	secure := flag.Bool("secure", false, "use the secure primitives")
	profileName := flag.String("profile", "lan", "link profile: local, lan, wan")
	messages := flag.Int("messages", 3, "group messages per client")
	scenarioName := flag.String("scenario", "", "run one named scenario instead of the smoke sim: "+strings.Join(scenario.Names(), ", "))
	out := flag.String("out", "", "write the scenario summary JSON to FILE (default stdout)")
	metricsAddr := flag.String("metrics", "", "serve the telemetry registry over HTTP on ADDR (e.g. localhost:9090)")
	traceSample := flag.Float64("trace-sample", 0, "record message-lifecycle spans for this fraction of traces (0 disables tracing, 1 records all); anomalies are always captured")
	traceSlow := flag.Duration("trace-slow", 100*time.Millisecond, "force-capture traces containing a span at least this slow")
	auditDir := flag.String("audit", "", "scenario mode: write a tamper-evident audit journal to DIR and serve /debug/audit on the -metrics endpoint (verify with admin audit verify -dir DIR)")
	pprofOn := flag.Bool("pprof", false, "mount /debug/pprof on the -metrics endpoint")
	pprofContention := flag.Bool("pprof-contention", false, "with -pprof, also sample mutex/block contention (small process-wide overhead)")
	linger := flag.Duration("linger", 0, "keep the -metrics endpoint up this long after the run, so admin metrics/trace can scrape a finished run")
	verbose := flag.Bool("v", false, "log every event")
	flag.Parse()

	reg := telemetry.Default
	var tracer *trace.Recorder
	if *traceSample > 0 {
		// Seeded like the scenario network: the sampled-trace set is
		// reproducible run to run.
		tracer = trace.New(trace.Config{
			SampleRate:    *traceSample,
			SlowThreshold: *traceSlow,
			Seed:          42,
		})
		reg.Handle("/debug/traces", tracer.DebugHandler())
	}
	if *pprofOn || *pprofContention {
		reg.EnablePprof(*pprofContention)
	}
	// The metrics mux is built before the scenario stack opens its
	// journal, so /debug/audit is an indirection: it answers 503 until
	// the scenario harness hands the live journal back (OnAudit).
	var liveAudit atomic.Pointer[audit.Journal]
	if *auditDir != "" {
		reg.Handle("/debug/audit", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			j := liveAudit.Load()
			if j == nil {
				http.Error(w, "audit journal not open yet", http.StatusServiceUnavailable)
				return
			}
			j.DebugHandler().ServeHTTP(w, r)
		}))
	}
	if *metricsAddr != "" {
		srv, err := reg.Serve(*metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", srv.Addr())
		if tracer != nil {
			fmt.Fprintf(os.Stderr, "tracing:   serving http://%s/debug/traces (sample=%g)\n", srv.Addr(), *traceSample)
		}
	}

	if *scenarioName != "" {
		onAudit := func(j *audit.Journal) { liveAudit.Store(j) }
		if err := runScenario(*scenarioName, *nClients, *messages, *profileName, *out, *auditDir, onAudit, reg, tracer); err != nil {
			log.Fatal(err)
		}
		lingerFor(*linger, *metricsAddr)
		return
	}
	if err := run(*nClients, *secure, *profileName, *messages, *verbose, reg); err != nil {
		log.Fatal(err)
	}
	lingerFor(*linger, *metricsAddr)
}

// lingerFor holds the process (and with it the -metrics endpoint,
// traces included) open after a completed run, so the admin tool can
// scrape evidence from a run that is already over.
func lingerFor(d time.Duration, metricsAddr string) {
	if d <= 0 || metricsAddr == "" {
		return
	}
	fmt.Fprintf(os.Stderr, "lingering %s for scrapes (ctrl-c to stop)\n", d)
	time.Sleep(d)
}

// runScenario drives one named scenario and writes its JSON summary.
// A run that recorded anomalies exits with status 1 AFTER writing the
// summary: CI gets the evidence and the red build.
func runScenario(name string, nClients, rounds int, profileName, out, auditDir string, onAudit func(*audit.Journal), reg *telemetry.Registry, tracer *trace.Recorder) error {
	// The flag defaults belong to the smoke sim; a scenario invoked
	// without explicit sizes uses its own defaults instead.
	opt := scenario.Options{Profile: profileName, Registry: reg, Tracer: tracer, AuditDir: auditDir, OnAudit: onAudit}
	if auditDir != "" {
		if err := os.MkdirAll(auditDir, 0o755); err != nil {
			return err
		}
	}
	if explicitFlag("clients") {
		opt.Clients = nClients
	}
	if explicitFlag("messages") {
		opt.Rounds = rounds
	}
	sum, err := scenario.Run(name, opt)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if out != "" {
		if err := os.WriteFile(out, raw, 0o644); err != nil {
			return err
		}
	} else {
		os.Stdout.Write(raw)
	}
	fmt.Fprintf(os.Stderr, "scenario %s: %d delivered, %.1f rounds/s, p99 %.1fms, %d anomalies\n",
		sum.Scenario, sum.Delivered, sum.RoundsPerSec, sum.P99DeliveryMS, len(sum.Anomalies))
	if len(sum.Anomalies) > 0 {
		for _, a := range sum.Anomalies {
			fmt.Fprintf(os.Stderr, "anomaly: %s\n", a)
		}
		// An anomalous run dumps the full registry snapshot next to the
		// summary: the gate gets the verdict AND the evidence, not just
		// the verdict. Best-effort — the exit status must not change.
		if out != "" {
			metricsOut := strings.TrimSuffix(out, ".json") + ".metrics.json"
			if raw, err := json.MarshalIndent(reg.Snapshot(), "", "  "); err == nil {
				if werr := os.WriteFile(metricsOut, append(raw, '\n'), 0o644); werr == nil {
					fmt.Fprintf(os.Stderr, "telemetry snapshot written to %s\n", metricsOut)
				}
			}
		}
		os.Exit(1)
	}
	return nil
}

func explicitFlag(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func run(nClients int, secure bool, profileName string, messages int, verbose bool, reg *telemetry.Registry) error {
	profile, err := simnet.ProfileByName(profileName)
	if err != nil {
		return err
	}
	net := simnet.NewNetwork(profile)
	defer net.Close()

	dep, err := core.NewDeployment("sim-admin", 0)
	if err != nil {
		return err
	}
	db := userdb.NewStoreIter(128)
	for i := 0; i < nClients; i++ {
		group := "team-a"
		if i%2 == 1 {
			group = "team-b"
		}
		if err := db.Register(user(i), pw(i), group, "plenary"); err != nil {
			return err
		}
	}

	site, err := dep.StartBroker(
		broker.Config{Name: "sim-broker", Net: net, DB: broker.LocalDB(db), RequireSecureLogin: secure},
		core.BrokerConfig{RequireSignedAdvs: secure})
	if err != nil {
		return err
	}
	defer site.Close()
	br := site.Broker
	core.RegisterBrokerTelemetry(reg, br, site.Security, nil, nil, nil)
	fmt.Printf("broker %q up (secure=%v, profile=%s)\n", br.Name(), secure, profileName)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var msgCount, secCount, alertCount atomic.Int64
	type peer struct {
		plain  *client.Client
		secure *core.SecureClient
		files  *filesvc.Service
	}
	var peersList []*peer

	for i := 0; i < nClients; i++ {
		var p peer
		if secure {
			sc, err := dep.NewClient(net, user(i))
			if err != nil {
				return err
			}
			if err := sc.Join(ctx, br.PeerID(), pw(i)); err != nil {
				sc.Close()
				return err
			}
			p.plain = sc.Client
			p.secure = sc
			p.files = filesvc.New(sc.Client)
		} else {
			cl, err := client.New(net, membership.NewNone(), user(i))
			if err != nil {
				return err
			}
			if err := cl.Connect(ctx, br.PeerID()); err != nil {
				return fmt.Errorf("%s connect: %w", user(i), err)
			}
			if err := cl.Login(ctx, pw(i)); err != nil {
				return fmt.Errorf("%s login: %w", user(i), err)
			}
			p.plain = cl
			p.files = filesvc.New(cl)
		}
		name := user(i)
		p.plain.Bus().SubscribeAll(func(e events.Event) {
			switch e.Type {
			case events.MessageReceived:
				msgCount.Add(1)
			case events.SecureMessage:
				secCount.Add(1)
			case events.SecurityAlert:
				alertCount.Add(1)
			}
			if verbose {
				fmt.Printf("  [%s] %-24s from=%.24s group=%s %s\n", name, e.Type, e.From, e.Group, summary(e))
			}
		})
		defer p.plain.Close()
		peersList = append(peersList, &p)
		fmt.Printf("client %s joined groups %v\n", name, p.plain.Groups())
	}

	// Everyone shares one file with the plenary group.
	for i, p := range peersList {
		content := []byte(strings.Repeat(fmt.Sprintf("notes of %s; ", user(i)), 100))
		if err := p.files.Share(ctx, "plenary", fmt.Sprintf("notes-%s.txt", user(i)), content); err != nil {
			return fmt.Errorf("share: %w", err)
		}
	}

	// Group chatter.
	for round := 0; round < messages; round++ {
		for i, p := range peersList {
			text := fmt.Sprintf("round %d greetings from %s", round, user(i))
			var sent int
			var err error
			if secure {
				sent, err = p.secure.SecureMsgPeerGroup(ctx, "plenary", text)
			} else {
				sent, err = p.plain.SendMsgPeerGroup(ctx, "plenary", text)
			}
			if err != nil {
				return fmt.Errorf("group send: %w", err)
			}
			if verbose {
				fmt.Printf("  %s sent to %d peers\n", user(i), sent)
			}
		}
	}

	// One cross-peer download.
	if len(peersList) >= 2 {
		data, err := peersList[1].files.Download(ctx, peersList[0].plain.PeerID(), "notes-"+user(0)+".txt")
		if err != nil {
			return fmt.Errorf("download: %w", err)
		}
		fmt.Printf("%s downloaded %d bytes from %s\n", user(1), len(data), user(0))
	}

	// Publish and read statistics.
	for _, p := range peersList {
		if err := p.plain.PublishStats(ctx, "plenary"); err != nil {
			return err
		}
	}
	if len(peersList) >= 2 {
		stats, err := peersList[0].plain.GetPeerStats(ctx, peersList[1].plain.PeerID(), "plenary")
		if err != nil {
			return err
		}
		fmt.Printf("stats of %s: sent=%d recv=%d bytes-out=%d\n", user(1), stats.MsgsSent, stats.MsgsRecv, stats.BytesSent)
	}

	// Let deliveries drain, then report.
	time.Sleep(200 * time.Millisecond)
	ns := net.Stats()
	fmt.Println()
	fmt.Printf("network: %d frames sent, %d delivered, %d dropped, %d bytes\n", ns.Sent, ns.Delivered, ns.Dropped, ns.Bytes)
	fmt.Printf("events:  %d plain messages, %d secure messages, %d security alerts\n",
		msgCount.Load(), secCount.Load(), alertCount.Load())
	return nil
}

func user(i int) string { return fmt.Sprintf("peer%02d", i) }
func pw(i int) string   { return fmt.Sprintf("pw-%02d", i) }

func summary(e events.Event) string {
	if len(e.Data) > 0 {
		s := string(e.Data)
		if len(s) > 32 {
			s = s[:32] + "..."
		}
		return fmt.Sprintf("%q", s)
	}
	if attrs := e.Attrs(); len(attrs) > 0 {
		return fmt.Sprintf("%v", attrs)
	}
	return ""
}
