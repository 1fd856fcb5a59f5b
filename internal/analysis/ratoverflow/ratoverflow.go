// Package ratoverflow implements the dpvet analyzer that enforces the
// overflow-fallback boundary of internal/rational's fixed-width
// rational (the ROADMAP item paired with the Small fast path).
//
// big.Rat never overflows; int64 does, silently. A fixed-width
// rational kernel is therefore only sound under a discipline the
// compiler cannot check:
//
//   - every raw fixed-width arithmetic op (int64/uint64 +, −, ·, /,
//     %, shifts, unary minus, ++/−−) lives either in a named checked
//     kernel (addChecked, mulChecked, ... — tiny functions whose whole
//     job is to detect overflow) or in a function that visibly falls
//     back to big.Rat (calls into math/big or produces a
//     big.Rat-carrying value), and
//   - Small values are built only by the checked constructor: a
//     non-empty Small{...} composite literal anywhere else bypasses
//     sign normalization and gcd reduction.
//
// The scope is matched by import-path suffix, so the golden fixture
// under testdata/src/ratoverflow/internal/rational exercises exactly
// the production configuration.
package ratoverflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"minimaxdp/internal/analysis"
)

// DefaultScope covers internal/rational (and, by suffix matching, the
// fixture mirror under testdata) plus internal/lp, whose revised
// simplex carries the hybrid Small/big.Rat scalar (revised.go) and is
// therefore bound by the same raw-arithmetic discipline.
var DefaultScope = []string{"internal/rational", "internal/lp"}

// DefaultKernels names the only functions allowed to perform raw
// fixed-width arithmetic. Keep in lockstep with internal/rational's
// checked-kernel section.
var DefaultKernels = []string{
	"addChecked", "subChecked", "mulChecked", "negChecked",
	"abs64", "divExact", "gcd64", "mul64To128",
}

// DefaultConstructors names the functions allowed to write non-empty
// Small composite literals.
var DefaultConstructors = []string{"MakeSmall"}

// Analyzer is the production instance.
var Analyzer = New(DefaultScope, DefaultKernels, DefaultConstructors)

// New builds a ratoverflow analyzer with custom allowlists; tests
// point it at fixture packages.
func New(scope, kernels, constructors []string) *analysis.Analyzer {
	a := &analyzer{
		scope:        scope,
		kernels:      toSet(kernels),
		constructors: toSet(constructors),
	}
	return &analysis.Analyzer{
		Name: "ratoverflow",
		Doc: "confine raw int64/uint64 arithmetic in internal/rational to the checked " +
			"overflow kernels or to functions that fall back to big.Rat, and require Small " +
			"values to come from the checked constructors",
		Run: a.run,
	}
}

func toSet(names []string) map[string]bool {
	s := make(map[string]bool, len(names))
	for _, n := range names {
		s[n] = true
	}
	return s
}

type analyzer struct {
	scope        []string
	kernels      map[string]bool
	constructors map[string]bool
}

func (a *analyzer) run(pass *analysis.Pass) {
	if !analysis.PathMatches(pass.Pkg.Path(), a.scope) {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				a.checkFunc(pass, d)
			case *ast.GenDecl:
				// Package-level initializers run outside any
				// constructor: only empty literals are fine.
				ast.Inspect(d, func(n ast.Node) bool {
					if cl, ok := n.(*ast.CompositeLit); ok {
						a.checkLiteral(pass, cl, "package-level initializer")
					}
					return true
				})
			}
		}
	}
}

func (a *analyzer) checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	name := fd.Name.Name
	kernel := a.kernels[name]
	ctor := a.constructors[name]
	fallback := kernel || fallsBack(pass, fd.Body)
	seenLines := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			if !ctor {
				a.checkLiteral(pass, x, name)
			}
		case *ast.BinaryExpr:
			switch x.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
				token.SHL, token.SHR:
				if isFixedWidth(pass.Info, x) {
					a.reportArith(pass, seenLines, x.OpPos, name, kernel, fallback)
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.SUB && isFixedWidth(pass.Info, x) {
				a.reportArith(pass, seenLines, x.OpPos, name, kernel, fallback)
			}
		case *ast.IncDecStmt:
			if isFixedWidth(pass.Info, x.X) {
				a.reportArith(pass, seenLines, x.TokPos, name, kernel, fallback)
			}
		case *ast.AssignStmt:
			switch x.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
				token.QUO_ASSIGN, token.REM_ASSIGN, token.SHL_ASSIGN, token.SHR_ASSIGN:
				if len(x.Lhs) == 1 && isFixedWidth(pass.Info, x.Lhs[0]) {
					a.reportArith(pass, seenLines, x.TokPos, name, kernel, fallback)
				}
			}
		}
		return true
	})
}

// reportArith emits at most one finding per source line: one
// expression such as a*d + b*c is one boundary violation, not three.
func (a *analyzer) reportArith(pass *analysis.Pass, seen map[string]bool, pos token.Pos, fn string, kernel, fallback bool) {
	if kernel || fallback {
		return
	}
	p := pass.Fset.Position(pos)
	key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
	if seen[key] {
		return
	}
	seen[key] = true
	pass.Reportf(pos,
		"unchecked fixed-width arithmetic in %s: move it into a checked kernel (%v) or put the function on a big.Rat fallback path",
		fn, keysOf(a.kernels))
}

func (a *analyzer) checkLiteral(pass *analysis.Pass, cl *ast.CompositeLit, where string) {
	if len(cl.Elts) == 0 {
		return // the zero value is a legal 0/1
	}
	tv, ok := pass.Info.Types[cl]
	if !ok || tv.Type == nil {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Pkg() != pass.Pkg {
		return
	}
	if named.Obj().Name() != "Small" {
		return
	}
	pass.Reportf(cl.Pos(),
		"non-empty %s literal in %s bypasses the checked constructors (%v): sign normalization and gcd reduction are skipped",
		named.Obj().Name(), where, keysOf(a.constructors))
}

// fallsBack reports whether a function body visibly reaches the
// big.Rat fallback: it calls into math/big or produces a value whose
// type carries big.Rat/big.Int. Raw fixed-width arithmetic is
// tolerated on such paths — overflow there changes speed, not
// results, because the exact value is recomputed.
func fallsBack(pass *analysis.Pass, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := analysis.CalleeFunc(pass.Info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "math/big" {
			found = true
			return false
		}
		if tv, ok := pass.Info.Types[call]; ok && tv.Type != nil && analysis.ContainsBigExact(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}

func isFixedWidth(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.Value != nil {
		return false // constant-folded: overflow is a compile error, not silent
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Int64, types.Uint64:
		return true
	}
	return false
}

func keysOf(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	// Deterministic order for diagnostics and fixtures.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
