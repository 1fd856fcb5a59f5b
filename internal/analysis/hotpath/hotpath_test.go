package hotpath

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"minimaxdp/internal/analysis/analysistest"
)

func TestFixture(t *testing.T) {
	diags := analysistest.Run(t, ".", Analyzer, "./testdata/src/hotpath")
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics; the escape cross-check is inert")
	}
}

// TestProductionAnnotations pins the serving-path annotation set: the
// functions whose zero-alloc behavior the benchmarks (BENCH_sample.json)
// and DESIGN.md §11 promise must stay under the escape gate. Removing
// an annotation would silently drop that function from CI coverage.
func TestProductionAnnotations(t *testing.T) {
	want := map[string][]string{
		"../../../internal/sample/dyadic.go":  {"Uint64", "Block", "Next", "SampleWord"},
		"../../../internal/engine/sampler.go": {"Sample", "SampleInto"},
		"../../../cmd/dpserver/server.go":     {"handleSample"},
	}
	fset := token.NewFileSet()
	for file, fns := range want {
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", file, err)
		}
		annotated := make(map[string]bool)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && Annotated(fd) {
				annotated[fd.Name.Name] = true
			}
		}
		for _, fn := range fns {
			if !annotated[fn] {
				t.Errorf("%s: %s has lost its %s annotation", file, fn, Directive)
			}
		}
	}
}

// TestAnnotated pins directive recognition: the directive must sit on
// its own doc-comment line; prose mentioning it does not opt in.
func TestAnnotated(t *testing.T) {
	src := `package p

//dpvet:hotpath
func A() {}

// B mentions //dpvet:hotpath in prose only.
func B() {}

//dpvet:hotpath with trailing words
func C() {}

func D() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"A": true, "B": false, "C": true, "D": false}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if got := Annotated(fd); got != want[fd.Name.Name] {
			t.Errorf("Annotated(%s) = %v, want %v", fd.Name.Name, got, want[fd.Name.Name])
		}
	}
}
