package jxtaoverlay

import (
	"go/types"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestSecurityDocCitesTestsThatExist: SECURITY.md names the test or fuzz
// target behind each claim it makes, and a claim whose test was renamed or
// deleted is a claim nothing checks any more. Every Test… and Fuzz… name
// the document cites must be a function declared in some _test.go file of
// the tree.
func TestSecurityDocCitesTestsThatExist(t *testing.T) {
	doc, err := os.ReadFile("SECURITY.md")
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z][A-Za-z0-9_]*`).FindAllString(string(doc), -1)
	if len(cited) == 0 {
		t.Fatal("SECURITY.md cites no tests")
	}
	declared := declaredTests(t)
	missing := map[string]bool{}
	for _, name := range cited {
		if !declared[name] && !missing[name] {
			missing[name] = true
			t.Errorf("SECURITY.md cites %s, which no _test.go declares", name)
		}
	}
}

// TestSecurityDocCitesNamesThatExist: a defence SECURITY.md pins to a
// name outlives the name unless something checks it. Every backticked
// `pkg.Name` or `pkg.Type.Member` the document cites, where pkg is a
// package under internal/, must name what that package declares: Name a
// package-level identifier, or a method or field of one of its types;
// Type.Member a method or field of that type. Test names are checked
// above.
func TestSecurityDocCitesNamesThatExist(t *testing.T) {
	s := loadSurface(t)
	doc, err := os.ReadFile("SECURITY.md")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]*types.Package{}
	for _, p := range s.order {
		if strings.HasPrefix(p.dir, "internal/") {
			byName[p.types.Name()] = append(byName[p.types.Name()], p.types)
		}
	}
	cited := regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Za-z_][A-Za-z0-9_]*)(?:\\.([A-Za-z_][A-Za-z0-9_]*))?`")
	checked := 0
	for _, m := range cited.FindAllStringSubmatch(string(doc), -1) {
		pkgs, ok := byName[m[1]]
		if !ok || testName.MatchString(m[2]) {
			continue
		}
		checked++
		if !slices.ContainsFunc(pkgs, func(p *types.Package) bool { return declares(p, m[2], m[3]) }) {
			t.Errorf("SECURITY.md cites %s, which internal/ does not declare", strings.Trim(m[0], "`"))
		}
	}
	if checked == 0 {
		t.Fatal("SECURITY.md cites no names")
	}
}

// declares reports whether pkg declares name, a package-level identifier
// or a method or field of one of its types, or, with a member, whether
// its type name has that method or field.
func declares(pkg *types.Package, name, member string) bool {
	scope := pkg.Scope()
	if member != "" {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			return false
		}
		obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, member)
		return obj != nil
	}
	if scope.Lookup(name) != nil {
		return true
	}
	for _, n := range scope.Names() {
		if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
			if obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, name); obj != nil {
				return true
			}
		}
	}
	return false
}
