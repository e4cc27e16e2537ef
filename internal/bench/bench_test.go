package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"jxtaoverlay/internal/simnet"
)

func newTestEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(WithDBIterations(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	return env
}

func TestRunJoinShape(t *testing.T) {
	if testing.Short() {
		t.Skip("join benchmark in -short mode")
	}
	env := newTestEnv(t)
	res, err := RunJoin(env, simnet.ProfileLAN, 3)
	if err != nil {
		t.Fatalf("RunJoin: %v", err)
	}
	// The shape the paper reports: the secure join is substantially more
	// expensive than the plain one (81.76% on their testbed), and both
	// are positive.
	if res.PlainTotal <= 0 || res.SecureTotal <= 0 {
		t.Fatalf("non-positive totals: %+v", res)
	}
	if res.SecureTotal <= res.PlainTotal {
		t.Fatalf("secure join (%v) not more expensive than plain (%v)", res.SecureTotal, res.PlainTotal)
	}
	if res.OverheadPct < 10 {
		t.Fatalf("join overhead %.1f%% implausibly low", res.OverheadPct)
	}
	// The secure exchange moves more frames (3 round trips vs 2) and
	// more bytes (credentials, signatures, envelopes).
	if res.Secure.Frames <= res.Plain.Frames {
		t.Fatalf("secure frames %d <= plain frames %d", res.Secure.Frames, res.Plain.Frames)
	}
	if res.Secure.Bytes <= res.Plain.Bytes {
		t.Fatalf("secure bytes %d <= plain bytes %d", res.Secure.Bytes, res.Plain.Bytes)
	}
}

func TestRunMsgSeriesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("message benchmark in -short mode")
	}
	env := newTestEnv(t)
	sizes := []int{64, 65536, 1 << 20}
	points, err := RunMsgSeries(env, simnet.ProfileLAN, sizes, 2)
	if err != nil {
		t.Fatalf("RunMsgSeries: %v", err)
	}
	if len(points) != len(sizes) {
		t.Fatalf("points = %d", len(points))
	}
	// Figure 2's shape: overhead is largest for small messages and falls
	// as transfer time dominates.
	if points[0].OverheadPct <= points[len(points)-1].OverheadPct {
		t.Fatalf("overhead did not fall with size: %.1f%% (64B) vs %.1f%% (1MiB)",
			points[0].OverheadPct, points[len(points)-1].OverheadPct)
	}
	// At small sizes the crypto cost must dominate visibly; at large
	// sizes secure and plain converge, so only a small negative margin
	// (scheduler noise at few iterations) is tolerated.
	if points[0].OverheadPct < 20 {
		t.Fatalf("small-message overhead %.1f%% implausibly low", points[0].OverheadPct)
	}
	for _, p := range points {
		if p.OverheadPct < -20 {
			t.Fatalf("secure substantially faster than plain at size %d (%.1f%%)", p.Size, p.OverheadPct)
		}
	}
}

func TestOpCostTotal(t *testing.T) {
	c := OpCost{Wall: 10 * time.Millisecond, Frames: 4, Bytes: 1_000_000}
	p := simnet.LinkProfile{Latency: time.Millisecond, Bandwidth: 1_000_000}
	// 10ms wall + 4×1ms latency + 1s serialization.
	want := 10*time.Millisecond + 4*time.Millisecond + time.Second
	if got := c.Total(p); got != want {
		t.Fatalf("Total = %v, want %v", got, want)
	}
	if got := c.Total(simnet.LinkProfile{}); got != c.Wall {
		t.Fatalf("Total(zero profile) = %v, want wall", got)
	}
}

func TestOverheadPct(t *testing.T) {
	if got := Overhead(100, 182); got < 81.9 || got > 82.1 {
		t.Fatalf("Overhead(100,182) = %.2f", got)
	}
	if got := Overhead(0, 50); got != 0 {
		t.Fatalf("Overhead(0,·) = %.2f", got)
	}
}

func TestAddUserUnique(t *testing.T) {
	env := newTestEnv(t)
	a1, p1, err := env.AddUser()
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := env.AddUser()
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("AddUser produced duplicate aliases")
	}
	if _, err := env.DB.Authenticate(a1, p1); err != nil {
		t.Fatal("registered user cannot authenticate")
	}
}

func TestTableFprint(t *testing.T) {
	tbl := &Table{
		Title:  "demo",
		Header: []string{"size", "plain", "secure"},
	}
	tbl.AddRow("64", "1ms", "3ms")
	tbl.AddRow("1048576", "100ms", "104ms")
	var buf bytes.Buffer
	if err := tbl.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "1048576") {
		t.Fatalf("output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{Header: []string{"a", "b"}}
	tbl.AddRow("1", `va"l,ue`)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"va\"\"l,ue\"\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}
