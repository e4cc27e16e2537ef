package endpoint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// TestVocabularyHoldsProto reads internal/proto's source (endpoint cannot
// import the package that imports it) and fails on any Elem* constant
// whose name the interned vocabulary lacks: a missing name is copied out
// of every frame that carries it.
func TestVocabularyHoldsProto(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "../proto/proto.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		for _, spec := range gen.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Elem") {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("proto.%s is not a string literal", name.Name)
				}
				value, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				seen++
				if _, ok := vocabulary[value]; !ok {
					t.Errorf("proto.%s = %q is not in the element-name vocabulary", name.Name, value)
				}
			}
		}
	}
	if seen < 40 {
		t.Fatalf("read %d Elem* constants from proto.go; the parse missed them", seen)
	}
}
