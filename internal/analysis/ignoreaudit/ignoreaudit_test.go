package ignoreaudit_test

import (
	"strings"
	"testing"

	"minimaxdp/internal/analysis"
	"minimaxdp/internal/analysis/analysistest"
	"minimaxdp/internal/analysis/floatflow"
	"minimaxdp/internal/analysis/ignoreaudit"
	"minimaxdp/internal/analysis/load"
)

// TestFixture drives the audit through a real suppression workload: a
// fenced floatflow instance scoped to the fixture produces the findings the
// directives claim to suppress, and the audit judges each directive
// against actual usage.
func TestFixture(t *testing.T) {
	ff := floatflow.New(floatflow.Table{"testdata/src/ignoreaudit": floatflow.Fenced})
	diags := analysistest.RunSuite(t, ".",
		[]*analysis.Analyzer{ff, ignoreaudit.Analyzer},
		"./testdata/src/ignoreaudit")
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics; the directive audit is inert")
	}
	for _, d := range diags {
		if d.Analyzer != analysis.IgnoreAuditName {
			t.Errorf("non-audit diagnostic leaked through a directive: %v", d)
		}
	}
}

// TestSubsetRunSkipsUnexercisedDirectives pins the no-false-stale
// rule: when floatflow does not run, the audit must not call its
// directives stale — it could not know. Only the missing-justification
// finding (a static property) survives.
func TestSubsetRunSkipsUnexercisedDirectives(t *testing.T) {
	res, err := load.Load(".", "./testdata/src/ignoreaudit")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := analysis.Run(res, []*analysis.Analyzer{ignoreaudit.Analyzer}, nil)
	if len(diags) != 1 {
		t.Fatalf("audit-only run reported %d diagnostics, want 1 (the bare directive): %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "no justification") {
		t.Fatalf("audit-only run reported %q, want the missing-justification finding", diags[0].Message)
	}
}
