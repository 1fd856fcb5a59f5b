package ratoverflow

import (
	"testing"

	"minimaxdp/internal/analysis"
	"minimaxdp/internal/analysis/analysistest"
	"minimaxdp/internal/analysis/load"
)

func TestFixture(t *testing.T) {
	diags := analysistest.Run(t, ".", Analyzer, "./testdata/src/ratoverflow/...")
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics; the boundary check is inert")
	}
}

func TestOutOfScope(t *testing.T) {
	res, err := load.Load(".", "./testdata/src/ratoverflow/...")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	a := New([]string{"no/such/package"}, DefaultKernels, DefaultConstructors)
	if diags := analysis.Run(res, []*analysis.Analyzer{a}, nil); len(diags) != 0 {
		t.Fatalf("out-of-scope run reported %d diagnostics: %v", len(diags), diags)
	}
}

// TestScopeCoversHybridKernels pins the analyzer scope: the hybrid
// Small/big.Rat scalar lives in internal/lp (revised.go), so both
// packages must stay policed. Shrinking this list silently reopens
// the raw-arithmetic hole.
func TestScopeCoversHybridKernels(t *testing.T) {
	for _, p := range []string{"minimaxdp/internal/rational", "minimaxdp/internal/lp"} {
		if !analysis.PathMatches(p, DefaultScope) {
			t.Errorf("%s missing from ratoverflow.DefaultScope; unchecked int64 arithmetic there would overflow silently", p)
		}
	}
	if len(DefaultScope) != 2 {
		t.Errorf("DefaultScope = %v, want exactly the two exact-arithmetic packages", DefaultScope)
	}
}

// TestKernelAllowlistStaysMinimal pins the kernel and constructor
// allowlists: every entry is a hole in the overflow fence, so growing
// either list must be a reviewed, deliberate change.
func TestKernelAllowlistStaysMinimal(t *testing.T) {
	wantKernels := map[string]bool{
		"addChecked": true, "subChecked": true, "mulChecked": true, "negChecked": true,
		"abs64": true, "divExact": true, "gcd64": true, "mul64To128": true,
	}
	if len(DefaultKernels) != len(wantKernels) {
		t.Fatalf("DefaultKernels = %v, want exactly %v", DefaultKernels, wantKernels)
	}
	for _, k := range DefaultKernels {
		if !wantKernels[k] {
			t.Fatalf("unexpected kernel %q in DefaultKernels", k)
		}
	}
	wantCtors := map[string]bool{"MakeSmall": true}
	if len(DefaultConstructors) != len(wantCtors) {
		t.Fatalf("DefaultConstructors = %v, want exactly %v", DefaultConstructors, wantCtors)
	}
	for _, c := range DefaultConstructors {
		if !wantCtors[c] {
			t.Fatalf("unexpected constructor %q in DefaultConstructors", c)
		}
	}
}
