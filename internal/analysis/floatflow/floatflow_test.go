package floatflow

import (
	"testing"

	"minimaxdp/internal/analysis"
	"minimaxdp/internal/analysis/analysistest"
	"minimaxdp/internal/analysis/load"
)

func TestFixture(t *testing.T) {
	diags := analysistest.Run(t, ".", Analyzer, "./testdata/src/floatflow")
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics; the taint engine is inert")
	}
}

// TestFenceFixture runs the production instance over the fenced
// fixture: every rational↔float bridge and float conversion is
// reported, tainted or not.
func TestFenceFixture(t *testing.T) {
	diags := analysistest.Run(t, ".", Analyzer, "./testdata/src/fence")
	if len(diags) == 0 {
		t.Fatal("fence fixture produced no diagnostics; the fence is inert")
	}
}

// TestOutOfScope checks that the taint fixture reports nothing when
// no table entry names it.
func TestOutOfScope(t *testing.T) {
	if diags := outOfScopeRun(t, "./testdata/src/floatflow"); len(diags) != 0 {
		t.Fatalf("out-of-scope run reported %d diagnostics: %v", len(diags), diags)
	}
}

// TestFenceOutOfScope checks that the fence never fires outside the
// table: the fenced fixture is silent when only real packages are
// named.
func TestFenceOutOfScope(t *testing.T) {
	if diags := outOfScopeRun(t, "./testdata/src/fence"); len(diags) != 0 {
		t.Fatalf("out-of-scope run reported %d diagnostics: %v", len(diags), diags)
	}
}

// outOfScopeRun applies an instance whose table names only a real
// package to the fixture at dir, without consulting want annotations.
func outOfScopeRun(t *testing.T, dir string) []analysis.Diagnostic {
	t.Helper()
	res, err := load.Load(".", dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	a := New(Table{"minimaxdp/internal/derive": Fenced})
	return analysis.Run(res, []*analysis.Analyzer{a}, nil)
}

// wantModes checks DefaultTable's mode for each package path.
func wantModes(t *testing.T, want map[string]Mode) {
	t.Helper()
	for path, m := range want {
		if got := DefaultTable.mode(path); got != m {
			t.Errorf("DefaultTable.mode(%q) = %d, want %d", path, got, m)
		}
	}
}

// TestLpInScope pins lp as policed, not fenced: floats may steer the
// shadow simplex but may not become exact data, and the fence would
// flag its every float. The solver front-ends and the engine are
// walked too, and fenced.
func TestLpInScope(t *testing.T) {
	wantModes(t, map[string]Mode{
		"minimaxdp/internal/lp":       Policed,
		"minimaxdp/internal/derive":   Fenced,
		"minimaxdp/internal/consumer": Fenced,
		"minimaxdp/internal/matrix":   Fenced,
		"minimaxdp/internal/engine":   Fenced,
	})
}

// TestServingLayersInScope is a change detector: the artifact store
// (exact rationals on disk; a float sneaking into an encoder would
// persist corrupt artifacts) and the tenant registry (exact privacy
// accounting) stay policed.
func TestServingLayersInScope(t *testing.T) {
	wantModes(t, map[string]Mode{
		"minimaxdp/internal/store":  Policed,
		"minimaxdp/internal/tenant": Policed,
	})
}

// TestWorkbenchLayersInScope is a change detector for the compare
// workbench: the baseline builders construct exact-rational
// mechanisms (a float seed would corrupt every downstream gap), and
// the loss registry is instantiated into every LP objective. Both are
// fenced.
func TestWorkbenchLayersInScope(t *testing.T) {
	wantModes(t, map[string]Mode{
		"minimaxdp/internal/baseline": Fenced,
		"minimaxdp/internal/loss":     Fenced,
	})
}

// TestScopeHandoff pins the sampling path inside the fence: the engine
// (sampler.go, shard.go) and the mechanism package (the per-row alias
// tables) are fenced, so the zero-findings repo gate
// (registry.TestRepoTreeClean) proves them float-free.
func TestScopeHandoff(t *testing.T) {
	wantModes(t, map[string]Mode{
		"minimaxdp/internal/engine":    Fenced,
		"minimaxdp/internal/mechanism": Fenced,
	})
}

// TestDefaultTable pins the rest of the table: math/big, rational and
// sample are sinks, and the float-native packages stay outside.
func TestDefaultTable(t *testing.T) {
	wantModes(t, map[string]Mode{
		"math/big":                    SinkOnly,
		"minimaxdp/internal/rational": SinkOnly,
		"minimaxdp/internal/sample":   SinkOnly,
		"minimaxdp/internal/laplace":  0,
		"minimaxdp/internal/stats":    0,
		"minimaxdp/internal/lpx":      0,
	})
}
