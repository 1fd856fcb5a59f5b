package floatexact_test

import (
	"testing"

	"minimaxdp/internal/analysis"
	"minimaxdp/internal/analysis/analysistest"
	"minimaxdp/internal/analysis/floatexact"
	"minimaxdp/internal/analysis/load"
)

// TestFixture runs the analyzer over the fixture package, scoped so
// the fixture's import path counts as exact-arithmetic, and checks
// diagnostics against the // want annotations.
func TestFixture(t *testing.T) {
	a := floatexact.New([]string{"testdata/src/floatexact"})
	diags := analysistest.Run(t, ".", a, "./testdata/src/floatexact")
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics; analyzer is inert")
	}
}

// TestOutOfScope checks that the fixture is silent when the scope
// names only real exact-arithmetic packages: floatexact must never
// fire outside its fence.
func TestOutOfScope(t *testing.T) {
	a := floatexact.New([]string{"minimaxdp/internal/derive"})
	if got := rawRun(t, a); len(got) != 0 {
		t.Fatalf("out-of-scope package produced diagnostics: %v", got)
	}
}

// TestScopeHandoff pins the division of labor with floatflow. The
// engine package (home of sampler.go and shard.go) and the mechanism
// package (home of the per-row alias tables) stay inside floatexact's
// blunt fence, so the zero-findings repo gate
// (registry.TestRepoTreeClean) actively proves the sampling path
// float-free. internal/lp, by contrast, must stay OUT: it hosts the
// sanctioned float64 shadow simplex and is guarded flow-sensitively
// by floatflow. Re-adding lp here would double-report its every float
// and defeat the taint model; dropping engine would open a hole.
func TestScopeHandoff(t *testing.T) {
	for _, p := range []string{"minimaxdp/internal/engine", "minimaxdp/internal/mechanism"} {
		if !analysis.PathMatches(p, floatexact.DefaultScope) {
			t.Fatalf("%s missing from floatexact.DefaultScope", p)
		}
	}
	if analysis.PathMatches("minimaxdp/internal/lp", floatexact.DefaultScope) {
		t.Fatal("minimaxdp/internal/lp is back in floatexact.DefaultScope; it belongs to floatflow (DESIGN.md §12)")
	}
	// The compare workbench's packages are exact-rational by design:
	// the baseline builders (staircase, truncated Laplace) feed gap
	// arithmetic that must be a true equality at the Theorem 1 oracle,
	// and the loss registry is instantiated into every LP objective.
	for _, p := range []string{
		"minimaxdp/internal/baseline",
		"minimaxdp/internal/loss",
	} {
		if !analysis.PathMatches(p, floatexact.DefaultScope) {
			t.Errorf("%s missing from floatexact.DefaultScope; a float literal there would corrupt exact gaps", p)
		}
	}
}

// rawRun applies the analyzer to the fixture without consulting want
// annotations.
func rawRun(t *testing.T, a *analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	res, err := load.Load(".", "./testdata/src/floatexact")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return analysis.Run(res, []*analysis.Analyzer{a}, nil)
}
