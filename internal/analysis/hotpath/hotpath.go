// Package hotpath implements the dpvet analyzer that keeps annotated
// hot functions allocation-free.
//
// PRs 4–5 made the serving path zero-alloc — the dyadic alias draw
// loop, the pooled simplex pivots, the /v1/sample handler — and
// benchmarks only notice a regression when someone runs them. The
// compiler, by contrast, proves the allocation facts on every build:
// `go build -gcflags=-m` prints exactly which expressions escape to
// the heap. This analyzer cross-checks a source annotation against
// those proofs:
//
//	// SampleWord draws one word ...
//	//
//	//dpvet:hotpath
//	func (d *DyadicAlias) SampleWord(u uint64) int { ... }
//
// Any "escapes to heap"/"moved to heap" diagnostic whose position
// falls inside an annotated function body is a finding. The escape
// data comes from Pass.Shared, computed once per dpvet run (and
// prefetched concurrently with package loading by cmd/dpvet).
//
// A value of size zero never allocates: the runtime hands every one
// the same static address. The compiler still reports such a value's
// escape ("context.backgroundCtx{} escapes to heap" when an inlined
// r.Context() feeds a context that escapes), so the analyzer resolves
// the reported expression's type with the loader's type information
// and skips the report when that type has size zero (zeroSized).
//
// Cold paths that must allocate (panic messages, error formatting)
// belong in //go:noinline helpers: inlining attributes a callee's
// allocations to the caller's lines, so an inlined panic guard would
// otherwise show up inside the annotated body. DESIGN.md §12 spells
// out this and the cross-package inlining blind spot.
package hotpath

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"runtime"
	"strings"

	"minimaxdp/internal/analysis"
	"minimaxdp/internal/analysis/escape"
)

// Directive marks a function whose body must stay heap-allocation
// free. It must appear on its own line of the function's doc comment.
const Directive = "//dpvet:hotpath"

// Analyzer is the production instance. There is no scope: the
// annotation itself opts a function in, wherever it lives.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "cross-check //dpvet:hotpath function annotations against go build -gcflags=-m " +
		"escape-analysis diagnostics and flag any heap allocation inside an annotated body",
	Run: run,
}

func run(pass *analysis.Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !Annotated(fd) {
				continue
			}
			esc, err := pass.Shared.Escape()
			if err != nil {
				// One finding, not one per annotation: the whole
				// fact source is unavailable (build failure).
				pass.Reportf(fd.Pos(), "cannot verify %s: %v", Directive, err)
				return
			}
			start := pass.Fset.Position(fd.Pos())
			end := pass.Fset.Position(fd.End())
			for _, a := range esc.Allocations(start.Filename, start.Line, end.Line) {
				if zeroSized(pass, pass.Fset.File(fd.Pos()), a) {
					continue
				}
				pass.ReportPosf(token.Position{Filename: start.Filename, Line: a.Line, Column: a.Col},
					"heap allocation in %s function %s: %s (cold paths that must allocate belong in //go:noinline helpers)",
					Directive, fd.Name.Name, a.Message)
			}
		}
	}
}

// Annotated reports whether a function declaration carries the
// hotpath directive in its doc comment.
func Annotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == Directive || strings.HasPrefix(c.Text, Directive+" ") {
			return true
		}
	}
	return false
}

// sizes measures types as the compiler that produced the escape
// diagnostics lays them out.
var sizes = types.SizesFor("gc", runtime.GOARCH)

// zeroSized reports whether the expression an escape diagnostic
// names has a type of size zero, so that its "allocation" is none.
// The expression is resolved at the diagnostic's position in file: a
// variable by the identifier at that position, a composite literal
// (or its address) by its type. A qualified type name is looked up in
// the packages the loaded package imports, directly or not, with
// unexported names included, since the compiler reports inlined
// bodies. Anything that does not resolve to exactly one type counts
// as an allocation.
func zeroSized(pass *analysis.Pass, file *token.File, a escape.Alloc) bool {
	x, err := parser.ParseExpr(a.Expr())
	if err != nil || file == nil || a.Line < 1 || a.Line > file.LineCount() {
		return false
	}
	pos := file.LineStart(a.Line) + token.Pos(a.Col-1)
	scope := pass.Pkg.Scope().Innermost(pos)
	if scope == nil {
		scope = pass.Pkg.Scope()
	}
	if u, ok := x.(*ast.UnaryExpr); ok && u.Op == token.AND {
		x = u.X // &T{}: the allocation is the T
	}
	var t types.Type
	switch x := x.(type) {
	case *ast.Ident:
		t = varAt(pass.Info, pos, x.Name)
	case *ast.CompositeLit:
		t = typeOf(pass.Pkg, scope, pos, x.Type)
	}
	return t != nil && sizes.Sizeof(t) == 0
}

// varAt returns the type of the variable named name whose identifier
// sits at pos, or nil. Requiring the position keeps a variable of an
// inlined callee, reported at the call, from matching a local of the
// same name.
func varAt(info *types.Info, pos token.Pos, name string) types.Type {
	for _, m := range []map[*ast.Ident]types.Object{info.Defs, info.Uses} {
		for id, obj := range m {
			if v, ok := obj.(*types.Var); ok && id.Pos() == pos && id.Name == name {
				return v.Type()
			}
		}
	}
	return nil
}

// typeOf resolves a type expression as the compiler prints one, or
// returns nil.
func typeOf(pkg *types.Package, scope *types.Scope, pos token.Pos, e ast.Expr) types.Type {
	switch e := e.(type) {
	case *ast.Ident:
		if _, obj := scope.LookupParent(e.Name, pos); obj != nil {
			if tn, ok := obj.(*types.TypeName); ok {
				return tn.Type()
			}
		}
	case *ast.SelectorExpr:
		qual, ok := e.X.(*ast.Ident)
		if !ok {
			return nil
		}
		var found types.Type
		for _, p := range importsOf(pkg) {
			if p.Name() != qual.Name {
				continue
			}
			if tn, ok := p.Scope().Lookup(e.Sel.Name).(*types.TypeName); ok {
				if found != nil {
					return nil // two packages of that name both declare it
				}
				found = tn.Type()
			}
		}
		return found
	case *ast.StructType:
		if e.Fields.NumFields() == 0 {
			return types.NewStruct(nil, nil)
		}
	case *ast.ArrayType:
		if n, ok := e.Len.(*ast.BasicLit); ok && n.Kind == token.INT && n.Value == "0" {
			return types.NewArray(types.Typ[types.Int], 0)
		}
	}
	return nil
}

// importsOf returns every package pkg imports, directly or not.
func importsOf(pkg *types.Package) []*types.Package {
	seen := map[*types.Package]bool{pkg: true}
	var out []*types.Package
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		for _, q := range p.Imports() {
			if !seen[q] {
				seen[q] = true
				out = append(out, q)
				walk(q)
			}
		}
	}
	walk(pkg)
	return out
}
