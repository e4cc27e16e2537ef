package jxtaoverlay

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)[A-Za-z0-9_]*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
	missing := map[string]bool{}
	for _, name := range cited {
		if !declared[name] && !missing[name] {
			missing[name] = true
			t.Errorf("SECURITY.md cites %s, which no _test.go declares", name)
		}
	}
}
