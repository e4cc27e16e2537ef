package jxtaoverlay

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wallReads lists every place in the protocol packages that may read the
// wall clock, as file:function — reason. Everything else reads its node's
// clock (endpoint.Service.Now, through Broker.Now or Client.Now) or is
// handed a time by the node that owns it: a second clock inside a peer is
// a state no deployment can be in. Timers, tickers and sleeps are not
// readings and are not listed.
var wallReads = map[string]string{
	"internal/core/envelope.go:Seal":                 "no node: cmd/perf and the unit tests seal without a peer; a peer calls seal with its own time",
	"internal/core/slice.go:SealGroupDetached":       "no node: the same for rounds; a peer calls sealRound",
	"internal/core/open.go:openCopy":                 "no node: Open and OpenSlice, for callers that hold a key and no peer; a peer calls openWire",
	"internal/core/replay.go:ReplayGuard.Check":      "no node: a guard used on its own; openWire calls admit with its peer's time",
	"internal/core/replay.go:ReplayGuard.CheckRound": "no node: the same for a round nonce",
	"internal/cred/cred.go:Issue":                    "no node: the administrator and tooling issue offline; a broker calls IssueAt",
	"internal/cred/trust.go:NewTrustStore":           "no node yet: anchors are checked once, when a deployment or a tool builds the store",
	"internal/admission/admission.go:New":            "default of the construction-time Config.Clock (cmd/perf builds a limiter and calls Allow(who))",
	"internal/relay/relay.go:New":                    "default of the construction-time Config.Clock; EnableBrokerRelay fills it with its broker's",
}

// TestWallClockReadsAreListed walks the non-test source of the packages
// that sign, compare or expire by time and fails on a time.Now, time.Since
// or time.Until outside wallReads — and on an entry of wallReads that no
// longer reads the wall.
func TestWallClockReadsAreListed(t *testing.T) {
	if len(wallReads) > 12 {
		t.Errorf("%d wall-clock readers listed; the list is for entry points without a node, not for new clocks", len(wallReads))
	}
	found := map[string]bool{}
	fset := token.NewFileSet()
	for _, pkg := range []string{"core", "broker", "client", "control", "cred", "userdb", "discovery", "admission", "relay"} {
		dir := filepath.Join("internal", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			path := filepath.ToSlash(filepath.Join(dir, e.Name()))
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range file.Decls {
				where := path + ":" + declName(decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "time" || (sel.Sel.Name != "Now" && sel.Sel.Name != "Since" && sel.Sel.Name != "Until") {
						return true
					}
					found[where] = true
					if _, ok := wallReads[where]; !ok {
						t.Errorf("%s: time.%s in %s: read the node's clock (endpoint.Service.Now), or take the time as an argument",
							fset.Position(sel.Pos()), sel.Sel.Name, declName(decl))
					}
					return true
				})
			}
		}
	}
	for where := range wallReads {
		if !found[where] {
			t.Errorf("wallReads lists %s, which reads no wall clock: delete the entry", where)
		}
	}
}

// declName names a top-level declaration: Func, Type.Method, or "var" for
// anything that is not a function.
func declName(decl ast.Decl) string {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok {
		return "var"
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}
