package jxtaoverlay

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// surfaceExempt names the exported identifiers under internal/ that no
// production code uses, and the settings fields that no production code
// sets, that stay anyway, each with one reason:
//
//   - "test support: <the tests that use it>";
//   - "paper: …", a JXTA-Overlay primitive or the paper's topology;
//   - "item N: …", the open ROADMAP item that will give it a caller;
//   - "decided: …", a ROADMAP Decided entry.
//
// A key is a package path below internal/ and a name
// ("relay/wal.DecodeRecord"; "lru.Cache.Len" for a method or an
// interface's method, "relay.Config.SenderQuota" for a field), a whole
// package ("attack") or a whole file ("audit/tamper.go").
// Production is every non-test file of the module, cmd/perf's included.
var surfaceExempt = map[string]string{
	// Test support: packages and files that exist for tests.
	"attack":               "test support: the security negatives of internal/attack (TestPlainMessageSourceSpoofing, TestSliceResealedByInsiderRefusedByWrap) build wire forms through it",
	"waituntil":            "test support: TestOnSignalDriven and every test that waits on a condition (TestMintedPipeIDsRefused, TestRelayCrashRecoveryExactlyOnce)",
	"perfgate":             "test support: every regression gate (TestGateDeliverFrame, TestGateOpenSlice)",
	"audit/tamper.go":      "test support: TestJournalTamperModel, TestAuditBitFlipPinpointed, TestAuditRollbackNeedsTrustPoint damage a closed journal through it",
	"relay/wal/corrupt.go": "test support: TestRecoveryTruncatesTornTail, TestRecoveryStopsAtFlippedCRC, TestWALTornTailTruncatedFailStop damage a closed log through it",
	"seglog/crashfs.go":    "test support: TestCrashAtEveryOperation, TestRelayCrashRecoveryExactlyOnce, TestFailStopTouchesNothing fail and crash a log through it",

	// Test support: what tests observe the system through or drive it by.
	"audit.DecodeRecord":                  "test support: FuzzAuditDecode, TestPresenceRecordsAreLocal read records a journal wrote",
	"audit.Journal.Head":                  "test support: TestAppendReopenContinuesChain compares the chain head across a reopen",
	"audit.Journal.Seq":                   "test support: TestJournalCrashMatrix, TestJournalTamperModel, TestDebugHandlerConcurrentWithAppends",
	"audit.Journal.Sync":                  "test support: TestJournalCrashMatrix, TestTornTailTruncatedOnOpen force the sync a crash point sits at",
	"broker.Broker.Peer":                  "test support: TestLoginAndRegistry, TestLogoutUnregisters, TestForgedStalePresenceCannotClobberNewerSession read a session record",
	"core.BrokerSecurity.Credential":      "test support: TestBrokerAgreementKeyUnderShareStatement, TestCredentialFieldEditedAfterIssueRefused, FuzzSignedRequest",
	"core.BrokerSecurity.ExpireLapsedNow": "test support: TestMissedHeartbeatsExpirePresence, TestReplayedHeartbeatCannotKeepSessionAlive run the lease sweep now",
	"core.BrokerSecurity.PendingSids":     "test support: TestSecureConnectFloodBoundsSidTable, TestSniffedSidCannotBeSpent, TestSecureLogin",
	"cred.Credential.Clone":               "test support: TestCredentialFieldEditedAfterIssueRefused, TestParseRejectsTamper edit a credential's fields",
	"cred.Credential.Equal":               "test support: TestStoredCredentialNotReusedPastHalfValidity, TestRejoinCostsBrokerNoPrivateKeyOperation, TestPSECredentialPersistence",
	"discovery.Cache.CheckIndex":          "test support: TestPutCanonicalModel, TestRepushRacesReplace, FuzzBrokerPush hold the digest index to its records",
	"endpoint.ParseFrame":                 "test support: TestCapturedFrameUnchangedAfterOpen, TestSealedIntoFrameWireLayout, TestResponseSentTwiceIsIdentical read a captured frame (a delivery parses into a lent table)",
	"endpoint.Service.SetClock":           "test support: TestNodeClock, TestChannelFrameAfterCredentialExpiryRefused, TestStoredCredentialNotReusedPastHalfValidity move a node's clock",
	"endpoint.Service.Send":               "test support: TestSendToHandler, TestCounters, TestGroupPipeSendReceive send a plain frame",
	"events.Collector.WaitFor":            "test support: TestCollector, TestConnectLogin, TestMintedPipeIDsRefused wait for an event",
	"events.NewCollector":                 "test support: TestCollector, TestConnectLogin, TestCapturedFrameReplayedTwice collect a bus's events",
	"keys.KeyPair.AgreeCalls":             "test support: TestRejoinCostsBrokerNoPrivateKeyOperation, TestRoundKeyAgreesOncePerPeer, TestLowOrderChallengeRefusedBeforeAgreement count X25519 operations",
	"keys.KeyPairFrom":                    "test support: TestKeySizeFloor, TestPSECredentialPersistence; the mustKey helpers build fixed keys with it",
	"lru.Cache.Len":                       "test support: TestUnwrapMemoCapped, TestSignDocumentCountsMissesOnly, TestTrustStoreModel hold a memo to its bound",
	"relay/wal.DecodeRecord":              "test support: FuzzWALDecode, TestDecodeRejectsTamper, TestRecordRoundTrip",
	"seglog.Log.Index":                    "test support: TestRotateDuringSync, TestCompactionReclaimsAckedRecords, TestStrayFilesAreNotSegments read the active segment",
	"telemetry.Registry.Get":              "test support: TestScenarioFeedsTelemetry, TestJoinSoakLeavesNothingBehind, TestChannelOfferFlood read one metric",
	"trace.Recorder.TraceSpans":           "test support: TestForcedCaptureOnAnomaly, TestSecurityAlertCarriesRetrievableTraceID",
	"xmldoc.Element.Clone":                "test support: TestMemoizedSignatureSplicedOntoAnotherAdvRefused, TestVerifyDetectsSignatureSwap, TestCloneIndependence",
	"xmldoc.Element.Equal":                "test support: FuzzParseCanonical, TestParseCanonicalPropertyRoundTrip, TestEqualDetectsChildOrder compare trees",

	// The paper's primitives and topology.
	"client.Client.CreateGroup":   "paper: the group primitives of JXTA-Overlay's client (TestGroupLifecycle)",
	"client.Client.JoinGroup":     "paper: the group primitives of JXTA-Overlay's client (TestGroupLifecycle)",
	"client.Client.LeaveGroup":    "paper: the group primitives of JXTA-Overlay's client (TestGroupLifecycle)",
	"client.Client.ListGroups":    "paper: the group primitives of JXTA-Overlay's client (TestGroupLifecycle)",
	"core.ResilientClient.Logout": "paper: a resilient client's logout primitive, which stops its heartbeat loop first",
	"taskexec.New":                "paper: the plain executable primitive the paper calls dangerous (TestDefaultAllowsEveryone)",
	"taskexec.Service.Exec":       "paper: the plain executable primitive the paper calls dangerous (TestRemoteExec)",
	"userdb.Client.Groups":        "paper: the broker–database link SECURITY.md defends (TestRemoteGroups)",
	"userdb.NewClient":            "paper: the broker–database link SECURITY.md defends (TestRemoteResponseAuthenticity)",
	"userdb.NewServer":            "paper: the broker–database link SECURITY.md defends (TestRemoteAuthenticate)",

	// Carried items that give a name its caller.
	"userdb.Store.SetDisabled": "item 6: admin expel disables the user (TestDisabledUserCannotExtendCredential)",

	// Settings no production code sets (TestConfigFieldsHaveProductionSetters).
	"relay.Config.SenderQuota":       "item 7: bounds an ack-withholding recipient by TTL and quota; SECURITY.md's quota defense (TestSenderQuotaRefusesAndReleases, TestQuotaSurvivesRecovery)",
	"relay.Config.GroupQuota":        "item 7: bounds an ack-withholding recipient by TTL and quota; SECURITY.md's quota defense (TestGroupQuotaIsolatesGroups)",
	"relay/wal.Options.FS":           "test support: TestCrashAtEveryOperation, TestWALFaultDegradesToMemory, TestRecoveryMatchesModel run the log on a seglog.CrashFS",
	"admission.Config.Clock":         "test support: TestBurstThenRefusal, TestOffenseEscalation, TestTrackedBound refill buckets by a test clock; Allow takes no time",
	"core.BrokerConfig.CredValidity": "test support: TestResilientSurvivesCredentialExpiry, TestSessionCredentialReadAcrossResume lapse a credential in seconds of real time",
}

// TestExportedNamesHaveProductionCallers type-checks the module's non-test
// source, and cmd/perf's, and fails on an exported identifier, method or
// interface method under internal/ that no production code uses and
// surfaceExempt does not name: an exported name only tests call is API the
// program does not have. A method also counts as used when its type
// implements an interface holding it whose method production code uses,
// or the error interface or an interface of a standard package the module
// imports. An entry of surfaceExempt that names nothing, or a name
// production code uses, fails too.
func TestExportedNamesHaveProductionCallers(t *testing.T) {
	s := loadSurface(t)
	covered := map[string]bool{} // surfaceExempt keys that cover an unused name
	for _, f := range s.configFields() {
		covered[f.key] = true // TestConfigFieldsHaveProductionSetters holds these
	}
	declared := declaredTests(t)
	for key, reason := range surfaceExempt {
		if covered[key] {
			continue
		}
		if err := checkReason(reason, declared); err != nil {
			t.Errorf("surfaceExempt[%q]: %v", key, err)
		}
	}

	var unlisted, perfOnly []string
	for _, n := range s.exported() {
		if n.used.module {
			continue
		}
		if n.used.perf {
			perfOnly = append(perfOnly, n.key)
			continue
		}
		if entry := exemptEntry(n); entry != "" {
			covered[entry] = true
			continue
		}
		unlisted = append(unlisted, fmt.Sprintf("%s: %s", s.fset.Position(n.obj.Pos()), n.key))
	}
	for _, u := range unlisted {
		t.Errorf("%s has no production caller: delete it, or name it in surfaceExempt with a reason", u)
	}
	for key := range surfaceExempt {
		if !covered[key] {
			t.Errorf("surfaceExempt[%q] names no exported name without a production caller", key)
		}
	}
	if len(unlisted) > 0 {
		t.Logf("%d exported names have no production caller", len(unlisted))
	}
	t.Logf("%d exported names only cmd/perf calls: %s", len(perfOnly), strings.Join(perfOnly, ", "))
}

// TestConfigFieldsHaveProductionSetters fails on an exported field of an
// exported Config or Options struct under internal/ that no production
// code outside the field's package sets and surfaceExempt does not name
// ("relay.Config.SenderQuota"): a setting only tests change is a constant
// the program has not written down. Defaulting code in the declaring
// package is no setter. An entry naming a field production code sets
// fails too.
func TestConfigFieldsHaveProductionSetters(t *testing.T) {
	s := loadSurface(t)
	declared := declaredTests(t)
	set := s.fieldsSetOutside()
	fields := s.configFields()
	var exempt []string
	for _, f := range fields {
		reason, listed := surfaceExempt[f.key]
		switch {
		case set[f.obj] && listed:
			t.Errorf("surfaceExempt[%q] names a field production code sets", f.key)
		case set[f.obj]:
		case listed:
			if err := checkReason(reason, declared); err != nil {
				t.Errorf("surfaceExempt[%q]: %v", f.key, err)
			}
			exempt = append(exempt, f.key+" ("+reason+")")
		default:
			t.Errorf("%s: %s has no production setter: make it a constant, or name it in surfaceExempt with a reason", s.fset.Position(f.obj.Pos()), f.key)
		}
	}
	t.Logf("%d of %d settings fields have no production setter, each exempt:\n\t%s", len(exempt), len(fields), strings.Join(exempt, "\n\t"))
}

// exemptEntry returns the surfaceExempt key that covers n, or "".
func exemptEntry(n surfaceName) string {
	for _, key := range []string{n.key, n.pkg, n.file} {
		if _, ok := surfaceExempt[key]; ok {
			return key
		}
	}
	return ""
}

var (
	reasonForm = regexp.MustCompile(`^(test support|paper|item [0-9]+|decided): \S`)
	testName   = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z][A-Za-z0-9_]*`)
)

// checkReason holds a surfaceExempt reason to its form; a test-support
// reason must name tests, and each must exist.
func checkReason(reason string, declared map[string]bool) error {
	m := reasonForm.FindStringSubmatch(reason)
	if m == nil {
		return fmt.Errorf("reason %q is not \"test support: …\", \"paper: …\", \"item N: …\" or \"decided: …\"", reason)
	}
	if m[1] != "test support" {
		return nil
	}
	names := testName.FindAllString(reason, -1)
	if len(names) == 0 {
		return fmt.Errorf("test-support reason %q names no test", reason)
	}
	var errs []error
	for _, name := range names {
		if !declared[name] {
			errs = append(errs, fmt.Errorf("test-support reason names %s, which no _test.go declares", name))
		}
	}
	return errors.Join(errs...)
}

// declaredTests returns the Test, Fuzz, Benchmark and Example functions
// the _test.go files of the tree declare.
func declaredTests(t *testing.T) map[string]bool {
	t.Helper()
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)[A-Za-z0-9_]*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared
}

const modulePath = "jxtaoverlay"

// perfDir is the benchmark, a module of its own beside the main one; its
// non-test files are loaded as one more package.
const perfDir = "cmd/perf"

// A surfacePkg is one type-checked package of non-test source.
type surfacePkg struct {
	dir   string // slash path from the repository root
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// usedBy says where production code uses an object.
type usedBy struct{ module, perf bool }

// A surface is the module's non-test source, type-checked, and where each
// object it declares is used.
type surface struct {
	fset  *token.FileSet
	pkgs  map[string]*surfacePkg // by import path
	order []*surfacePkg          // each after the packages it imports
	users map[types.Object]usedBy
	// ifaces are the interfaces a method may be called through.
	ifaces []*types.Named
}

var (
	surfaceOnce   sync.Once
	loadedSurface *surface
	surfaceErr    error
)

// loadSurface parses and type-checks the module once per test binary.
func loadSurface(t *testing.T) *surface {
	t.Helper()
	surfaceOnce.Do(func() { loadedSurface, surfaceErr = newSurface() })
	if surfaceErr != nil {
		t.Fatal(surfaceErr)
	}
	return loadedSurface
}

func newSurface() (*surface, error) {
	s := &surface{fset: token.NewFileSet(), pkgs: map[string]*surfacePkg{}, users: map[types.Object]usedBy{}}
	dirs := map[string]string{} // import path → directory
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		path = filepath.ToSlash(path)
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != "." && path != perfDir {
			return filepath.SkipDir
		}
		importPath := modulePath
		if path != "." {
			importPath += "/" + path
		}
		dirs[importPath] = path
		return nil
	})
	if err != nil {
		return nil, err
	}
	std := importer.Default()
	var check func(importPath string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if _, ok := dirs[path]; ok {
			return check(path)
		}
		return std.Import(path)
	})
	check = func(importPath string) (*types.Package, error) {
		if p := s.pkgs[importPath]; p != nil {
			return p.types, nil
		}
		dir := dirs[importPath]
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		p := &surfacePkg{dir: dir, info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		conf := types.Config{Importer: imp}
		p.types, err = conf.Check(importPath, s.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		s.pkgs[importPath] = p
		s.order = append(s.order, p)
		return p.types, nil
	}
	paths := make([]string, 0, len(dirs))
	for path := range dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := check(path); err != nil {
			var none *build.NoGoError
			if errors.As(err, &none) {
				continue
			}
			return nil, err
		}
	}
	for _, p := range s.order {
		s.recordUses(p)
	}
	if s.ifaces, err = s.interfaces(); err != nil {
		return nil, err
	}
	return s, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// recordUses notes every object p's source uses, generic instances as
// their origin. A function's use of itself is no use.
func (s *surface) recordUses(p *surfacePkg) {
	perf := p.dir == perfDir
	for _, f := range p.files {
		for _, decl := range f.Decls {
			var self types.Object
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self = p.info.Defs[fd.Name]
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := origin(p.info.Uses[id])
				if obj == nil || obj == self {
					return true
				}
				u := s.users[obj]
				if perf {
					u.perf = true
				} else {
					u.module = true
				}
				s.users[obj] = u
				return true
			})
		}
	}
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// A surfaceName is one exported name under internal/.
type surfaceName struct {
	obj  types.Object
	key  string // "relay/wal.DecodeRecord", "lru.Cache.Len"
	pkg  string // "core", "relay/wal"
	file string // "core/open.go"
	// used says where production code uses the name, directly or, for
	// a method, through an interface its type implements.
	used usedBy
}

// exported lists the exported package-level identifiers, methods and
// interface methods under internal/, in source order.
func (s *surface) exported() []surfaceName {
	var names []surfaceName
	for _, p := range s.order {
		pkg, ok := strings.CutPrefix(p.dir, "internal/")
		if !ok {
			continue
		}
		add := func(obj types.Object, key string, via usedBy) {
			file := filepath.ToSlash(s.fset.Position(obj.Pos()).Filename)
			u := s.users[obj]
			u.module, u.perf = u.module || via.module, u.perf || via.perf
			names = append(names, surfaceName{obj: obj, key: key, pkg: pkg, file: strings.TrimPrefix(file, "internal/"), used: u})
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				add(obj, pkg+"."+name, usedBy{})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := range iface.NumExplicitMethods() {
					if m := iface.ExplicitMethod(i); m.Exported() {
						add(m, pkg+"."+name+"."+m.Name(), usedBy{})
					}
				}
				continue
			}
			for i := range named.NumMethods() {
				if m := named.Method(i); m.Exported() {
					add(m, pkg+"."+name+"."+m.Name(), s.viaInterface(named, m))
				}
			}
		}
	}
	sort.SliceStable(names, func(i, j int) bool { return names[i].obj.Pos() < names[j].obj.Pos() })
	return names
}

// A configField is one exported field of a settings struct under internal/.
type configField struct {
	obj *types.Var
	key string // "relay.Config.SenderQuota"
}

// configFields lists the exported fields of the exported struct types
// under internal/ whose names end in Config or Options.
func (s *surface) configFields() []configField {
	var fields []configField
	for _, p := range s.order {
		pkg, ok := strings.CutPrefix(p.dir, "internal/")
		if !ok {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() {
					fields = append(fields, configField{obj: f, key: pkg + "." + name + "." + f.Name()})
				}
			}
		}
	}
	return fields
}

// fieldsSetOutside returns the struct fields production code writes
// outside the field's own package: a key of a composite literal, or any
// field on the selector chain that an assignment, an increment or a
// decrement writes or & takes the address of, embedded fields included
// ("cfg.WAL.Dir = d" sets Dir and WAL).
func (s *surface) fieldsSetOutside() map[types.Object]bool {
	set := map[types.Object]bool{}
	for _, p := range s.order {
		mark := func(obj types.Object) {
			if v, ok := origin(obj).(*types.Var); ok && v.IsField() && v.Pkg() != p.types {
				set[v] = true
			}
		}
		chain := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.SelectorExpr:
					// The path holds the embedded fields a promoted
					// field is reached through, then the field.
					if sel := p.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
						typ := sel.Recv()
						for _, i := range sel.Index() {
							if ptr, ok := typ.Underlying().(*types.Pointer); ok {
								typ = ptr.Elem()
							}
							f := typ.Underlying().(*types.Struct).Field(i)
							mark(f)
							typ = f.Type()
						}
					}
					e = x.X
				case *ast.ParenExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				default:
					return
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								mark(p.info.Uses[id])
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						chain(lhs)
					}
				case *ast.IncDecStmt:
					chain(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						chain(n.X)
					}
				}
				return true
			})
		}
	}
	return set
}

// errorsContract declares the interfaces the errors package asserts
// without naming them: errors.Is, As and Unwrap call these methods.
const errorsContract = `package errors
type unwrapper interface{ Unwrap() error }
type joined interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }
`

// interfaces returns the interfaces a method may be called through: the
// error interface, the errors package's contract, every interface a
// standard package the module imports declares, and the module's own.
func (s *surface) interfaces() ([]*types.Named, error) {
	f, err := parser.ParseFile(s.fset, "errors_contract.go", errorsContract, 0)
	if err != nil {
		return nil, err
	}
	contract, err := new(types.Config).Check("errors", s.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	ifaces := []*types.Named{types.Universe.Lookup("error").Type().(*types.Named)}
	pkgs := []*types.Package{contract}
	seen := map[*types.Package]bool{}
	for _, p := range s.order {
		pkgs = append(pkgs, p.types)
		for _, imp := range p.types.Imports() {
			if _, ok := s.pkgs[imp.Path()]; !ok {
				pkgs = append(pkgs, imp)
			}
		}
	}
	for _, pkg := range pkgs {
		if seen[pkg] {
			continue
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && types.IsInterface(named) && named.TypeParams().Len() == 0 {
				ifaces = append(ifaces, named)
			}
		}
	}
	return ifaces, nil
}

// viaInterface says where production code may call m, a method of named,
// through an interface that named or a pointer to it implements: anywhere
// for an interface outside the module, where the interface's method is
// used for one of the module's own.
func (s *surface) viaInterface(named *types.Named, m *types.Func) usedBy {
	var u usedBy
	for _, in := range s.ifaces {
		iface := in.Underlying().(*types.Interface)
		var im *types.Func
		for i := range iface.NumMethods() {
			if iface.Method(i).Name() == m.Name() {
				im = iface.Method(i)
			}
		}
		if im == nil {
			continue
		}
		outside := in.Obj().Pkg() == nil || s.pkgs[in.Obj().Pkg().Path()] == nil
		iu := s.users[im]
		if !outside && !iu.module && !iu.perf {
			continue
		}
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		if outside {
			return usedBy{module: true}
		}
		u.module, u.perf = u.module || iu.module, u.perf || iu.perf
	}
	return u
}
