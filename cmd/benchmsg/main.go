// Command benchmsg regenerates experiment F2 (paper Figure 2): the
// overhead of secureMsgPeer relative to sendMsgPeer as a function of
// message size, plus the A3 (group fan-out) and A5 (link profile)
// ablations.
//
// Usage:
//
//	benchmsg [-sizes 16,256,4096,65536,1048576] [-iters 5]
//	         [-profiles lan,wan] [-group] [-csv out.csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"jxtaoverlay/internal/bench"
	"jxtaoverlay/internal/simnet"
)

func main() {
	sizesFlag := flag.String("sizes", "16,256,4096,65536,1048576", "payload sizes in bytes")
	iters := flag.Int("iters", 5, "messages per size per variant")
	profilesFlag := flag.String("profiles", "lan", "link profiles: local, lan, wan (A5 ablation)")
	group := flag.Bool("group", false, "also run the A3 group fan-out ablation")
	csvPath := flag.String("csv", "", "write the F2 series as CSV to this file")
	flag.Parse()

	sizes, err := parseInts(*sizesFlag)
	if err != nil {
		fatal(err)
	}

	env, err := bench.NewEnv()
	if err != nil {
		fatal(err)
	}
	defer env.Close()

	var csvTable *bench.Table
	for _, profName := range strings.Split(*profilesFlag, ",") {
		profile, err := simnet.ProfileByName(strings.TrimSpace(profName))
		if err != nil {
			fatal(err)
		}
		points, err := bench.RunMsgSeries(env, profile, sizes, *iters)
		if err != nil {
			fatal(err)
		}
		table := &bench.Table{
			Title:  fmt.Sprintf("F2: secureMsgPeer overhead vs size (profile=%s, iters=%d)", profName, *iters),
			Header: []string{"size", "plain", "secure", "overhead%", "plain-bytes", "secure-bytes"},
		}
		for _, p := range points {
			table.AddRow(
				strconv.Itoa(p.Size),
				p.PlainTotal.String(),
				p.SecureTotal.String(),
				fmt.Sprintf("%.2f", p.OverheadPct),
				strconv.FormatUint(p.Plain.Bytes, 10),
				strconv.FormatUint(p.Secure.Bytes, 10),
			)
		}
		if err := table.Fprint(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
		if csvTable == nil {
			csvTable = &bench.Table{Header: []string{"profile", "size", "plain_ns", "secure_ns", "overhead_pct"}}
		}
		for _, p := range points {
			csvTable.AddRow(profName,
				strconv.Itoa(p.Size),
				strconv.FormatInt(int64(p.PlainTotal), 10),
				strconv.FormatInt(int64(p.SecureTotal), 10),
				fmt.Sprintf("%.2f", p.OverheadPct),
			)
		}
	}

	if *group {
		profile, _ := simnet.ProfileByName("lan")
		results, err := bench.RunGroupFanOut(env, profile, []int{2, 4, 8}, *iters)
		if err != nil {
			fatal(err)
		}
		table := &bench.Table{
			Title:  "A3: group fan-out (secureMsgPeerGroup vs sendMsgPeerGroup, profile=lan)",
			Header: []string{"members", "plain", "secure", "overhead%"},
		}
		for _, r := range results {
			table.AddRow(strconv.Itoa(r.GroupSize), r.Plain.String(), r.Secure.String(),
				fmt.Sprintf("%.2f", r.OverheadPct))
		}
		if err := table.Fprint(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}

	if *csvPath != "" && csvTable != nil {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := csvTable.WriteCSV(f); err != nil {
			fatal(err)
		}
		fmt.Println("CSV series written to", *csvPath)
	}
	fmt.Println("paper reference (Figure 2): overhead is high for small payloads and falls steeply as transfer time dominates")
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", s, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmsg:", err)
	os.Exit(1)
}
