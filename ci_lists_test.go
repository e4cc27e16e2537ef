package jxtaoverlay

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIListsNameTestsThatExist: CI names tests in two lists, and `go
// test -run` passes a pattern that matches nothing ("no tests to run"),
// so a test renamed or deleted out from under a list leaves a step that
// runs nothing and stays green. Every |-alternative of a
// .github/race-repeat.txt pattern must match a Test, Fuzz or Example
// function in that line's packages, every package on a line must declare
// one the pattern matches (or the step runs that package for nothing),
// and every fuzz.yml matrix target must be a Fuzz function in its
// package.
func TestCIListsNameTestsThatExist(t *testing.T) {
	lists, err := os.ReadFile(".github/race-repeat.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range strings.Split(string(lists), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		pkgs, rest, ok := strings.Cut(line, " :: ")
		pattern, _, _ := strings.Cut(rest, " :: ")
		if !ok || pattern == "" {
			t.Errorf("race-repeat.txt: line %q is not packages :: pattern :: why", line)
			continue
		}
		lines++
		whole, err := regexp.Compile(pattern)
		if err != nil {
			t.Errorf("race-repeat.txt: %q: %v", pattern, err)
			continue
		}
		var names []string
		for _, pkg := range strings.Fields(pkgs) {
			own := testFuncs(t, pkg)
			if !matchesAny(whole, own) {
				t.Errorf("race-repeat.txt: %s declares no test matching %q", pkg, pattern)
			}
			names = append(names, own...)
		}
		for _, alt := range alternatives(pattern) {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("race-repeat.txt: %q: %v", alt, err)
				continue
			}
			if !matchesAny(re, names) {
				t.Errorf("race-repeat.txt: %q matches no test in %s", alt, pkgs)
			}
		}
	}
	if lines == 0 {
		t.Fatal("race-repeat.txt lists no tests")
	}

	workflow, err := os.ReadFile(".github/workflows/fuzz.yml")
	if err != nil {
		t.Fatal(err)
	}
	targets := 0
	var target string
	for _, line := range strings.Split(string(workflow), "\n") {
		line = strings.TrimSpace(line)
		if v, ok := strings.CutPrefix(line, "- target:"); ok {
			target = strings.TrimSpace(v)
			continue
		}
		pkg, ok := strings.CutPrefix(line, "package:")
		if !ok || target == "" {
			continue
		}
		pkg = strings.TrimSpace(pkg)
		targets++
		found := false
		for _, name := range testFuncs(t, pkg) {
			found = found || name == target
		}
		if !found || !strings.HasPrefix(target, "Fuzz") {
			t.Errorf("fuzz.yml: target %s is not a Fuzz function in %s", target, pkg)
		}
		target = ""
	}
	if targets == 0 {
		t.Fatal("fuzz.yml names no targets")
	}
}

// TestVectorFilesAreRead: a known-answer vector that no test reads pins
// nothing, and its form could drift with the file still in the tree. Every
// file under a testdata/vectors directory must be named, by its file name,
// in a _test.go file of the package that testdata belongs to.
func TestVectorFilesAreRead(t *testing.T) {
	named := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Base(filepath.Dir(path)) != "vectors" {
			return err
		}
		pkg := filepath.Dir(filepath.Dir(path))
		if filepath.Base(pkg) != "testdata" {
			return nil
		}
		pkg = filepath.Dir(pkg)
		tests, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		if err != nil {
			return err
		}
		for _, test := range tests {
			src, err := os.ReadFile(test)
			if err != nil {
				return err
			}
			if strings.Contains(string(src), d.Name()) {
				named++
				return nil
			}
		}
		t.Errorf("%s: no _test.go in %s names it", path, pkg)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if named == 0 {
		t.Fatal("no test names a vector file")
	}
}

// testFuncs lists the Test, Fuzz and Example functions the _test.go files
// of the package in dir declare.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Errorf("%s: no test files (%v)", dir, err)
		return nil
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Example"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}

// alternatives splits a -run pattern at its top-level |, the ones outside
// brackets and parentheses.
func alternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i, c := range pattern {
		switch c {
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, pattern[start:])
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
