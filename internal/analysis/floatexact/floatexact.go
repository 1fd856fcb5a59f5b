// Package floatexact implements the dpvet analyzer that fences the
// exact-arithmetic core of this module off from floating point.
//
// Theorem 2's derivability test ((1+α²)·x₂ − α·(x₁+x₃) ≥ 0) and the
// LP optima of §2.4.3/§2.5 are exact rational statements; one float64
// round-trip inside the solver turns every downstream "equality" into
// an approximation and silently voids the optimality claims. The
// analyzer therefore rejects, inside the designated exact packages,
// every construct that crosses the rational/float boundary:
//
//   - calls to rational.Float and rational.FromFloat,
//   - calls to (*big.Rat).Float64 / (*big.Rat).Float32, and
//   - conversions to float64 or float32.
//
// Packages that are float-native by design — internal/laplace
// (transcendental noise densities), internal/stats (Monte-Carlo
// estimators), internal/sample — are simply outside Scope.
//
// internal/lp is also outside Scope, but for a different reason: it
// is guarded by the flow-sensitive floatflow analyzer instead. lp
// legitimately hosts the float64 shadow simplex (floatsimplex.go)
// whose only sanctioned export is a []int candidate basis; a blunt
// "no float syntax" rule would need a wholesale per-file exemption
// there, which is exactly the hole floatflow's taint tracking closes.
// See DESIGN.md §12.
package floatexact

import (
	"go/ast"
	"go/types"

	"minimaxdp/internal/analysis"
)

// DefaultScope lists the exact-arithmetic packages (matched by import
// path or "/"-suffix). internal/lp is deliberately absent: floatflow
// owns it (see the package comment).
var DefaultScope = []string{
	"minimaxdp/internal/derive",
	"minimaxdp/internal/consumer",
	"minimaxdp/internal/matrix",
	// Mechanisms hold the sampling kernel: every draw from an exact
	// row goes through its certified dyadic alias tables (AliasRow).
	"minimaxdp/internal/mechanism",
	// The serving engine caches exact artifacts (mechanisms,
	// transitions, LP optima) and must stay exact everywhere —
	// including its samplers: the dyadic alias tables (sampler.go)
	// are built from the rational rows by integer
	// quantization with a rational certificate, so not even the draw
	// path needs a float exemption. See DESIGN.md §11.
	"minimaxdp/internal/engine",
	// The compare workbench: baseline mechanism builders (staircase and
	// truncated Laplace are exact-rational constructions by design) and
	// the loss registry behind every consumer-spec codec.
	"minimaxdp/internal/baseline",
	"minimaxdp/internal/loss",
	// The analyzer's own fixture package counts as exact-arithmetic so
	// that the production binary demonstrably fires when pointed at it
	// (`go run ./cmd/dpvet ./internal/analysis/floatexact/testdata/src/floatexact`).
	// Wildcard patterns never descend into testdata, so this entry is
	// inert for ./... runs.
	"testdata/src/floatexact",
}

// Analyzer is the production instance.
var Analyzer = New(DefaultScope)

// New builds a floatexact analyzer over a custom scope; tests point it
// at fixture packages.
//
// There is deliberately no per-file allowlist anymore: the historical
// AllowFiles mechanism (floatsimplex.go rode it) exempted whole files
// from every rule, float escapes included. Packages that need
// float/exact coexistence now move to floatflow's taint scope, where
// only the sanctioned flows pass.
func New(scope []string) *analysis.Analyzer {
	a := &analyzer{scope: scope}
	return &analysis.Analyzer{
		Name: "floatexact",
		Doc: "forbid float64/float32 escapes (rational.Float, rational.FromFloat, " +
			"(*big.Rat).Float64, float conversions) inside exact-arithmetic packages",
		Run: a.run,
	}
}

type analyzer struct {
	scope []string
}

func (a *analyzer) run(pass *analysis.Pass) {
	if !analysis.PathMatches(pass.Pkg.Path(), a.scope) {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			a.checkCall(pass, call)
			return true
		})
	}
}

func (a *analyzer) checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	// Conversions: float64(x), float32(x).
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if b, ok := tv.Type.Underlying().(*types.Basic); ok &&
			(b.Kind() == types.Float64 || b.Kind() == types.Float32) {
			pass.Reportf(call.Pos(),
				"%s conversion in exact-arithmetic package %s (keep the pipeline on *big.Rat; see DESIGN.md §7)",
				b.Name(), pass.Pkg.Path())
		}
		return
	}
	fn := analysis.CalleeFunc(pass.Info, call)
	if fn == nil {
		return
	}
	// Boundary helpers of the rational package.
	if pkg := fn.Pkg(); pkg != nil && analysis.PathMatches(pkg.Path(), []string{"internal/rational"}) {
		if fn.Name() == "Float" || fn.Name() == "FromFloat" {
			pass.Reportf(call.Pos(),
				"call to rational.%s in exact-arithmetic package %s (rational↔float bridges are allowed only in display and Monte-Carlo code)",
				fn.Name(), pass.Pkg.Path())
		}
		return
	}
	// Direct (*big.Rat).Float64 / Float32 method calls.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
		analysis.IsBigRat(sig.Recv().Type()) &&
		(fn.Name() == "Float64" || fn.Name() == "Float32") {
		pass.Reportf(call.Pos(),
			"call to (*math/big.Rat).%s in exact-arithmetic package %s (exactness is lost at this point)",
			fn.Name(), pass.Pkg.Path())
	}
}
