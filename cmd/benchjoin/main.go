// Command benchjoin regenerates experiment E1 (paper §5): the overhead
// of joining the JXTA-Overlay network through secureConnection +
// secureLogin compared to the original connect + login, plus the A1
// key-size ablation.
//
// Usage:
//
//	benchjoin [-iters 20] [-profile lan|wan|local] [-keysizes 1024,2048]
//
// Output is a paper-style table: plain time, secure time, overhead %.
// The paper reports ≈81.76% on its testbed; cmd/perf/README.md ("The
// paper's two rows") compares this repository's number with it.
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
	iters := flag.Int("iters", 20, "join iterations per variant")
	profileName := flag.String("profile", "lan", "link profile: local, lan, wan")
	keySizes := flag.String("keysizes", "1024", "comma-separated RSA modulus sizes (A1 ablation)")
	flag.Parse()

	profile, err := simnet.ProfileByName(*profileName)
	if err != nil {
		fatal(err)
	}

	table := &bench.Table{
		Title: fmt.Sprintf("E1: network join overhead (profile=%s, iters=%d)", *profileName, *iters),
		Header: []string{
			"rsa-bits", "plain", "secure", "overhead%",
			"plain-frames", "secure-frames", "plain-bytes", "secure-bytes",
		},
	}
	for _, sizeStr := range strings.Split(*keySizes, ",") {
		bits, err := strconv.Atoi(strings.TrimSpace(sizeStr))
		if err != nil {
			fatal(fmt.Errorf("bad key size %q: %w", sizeStr, err))
		}
		env, err := bench.NewEnv(bench.WithKeyBits(bits))
		if err != nil {
			fatal(err)
		}
		res, err := bench.RunJoin(env, profile, *iters)
		env.Close()
		if err != nil {
			fatal(err)
		}
		table.AddRow(
			strconv.Itoa(bits),
			res.PlainTotal.String(),
			res.SecureTotal.String(),
			fmt.Sprintf("%.2f", res.OverheadPct),
			strconv.FormatUint(res.Plain.Frames, 10),
			strconv.FormatUint(res.Secure.Frames, 10),
			strconv.FormatUint(res.Plain.Bytes, 10),
			strconv.FormatUint(res.Secure.Bytes, 10),
		)
	}
	if err := table.Fprint(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Println("\npaper reference (1.20 GHz Pentium M, LAN): secure join overhead ~= 81.76%")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjoin:", err)
	os.Exit(1)
}
