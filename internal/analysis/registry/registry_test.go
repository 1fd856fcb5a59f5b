package registry_test

import (
	"strings"
	"testing"

	"minimaxdp/internal/analysis/registry"
)

// TestRepoTreeClean is the vet gate in test form: the production
// analyzer suite must report zero findings over the whole module.
// Wildcard patterns skip testdata, so the deliberately violating
// fixture packages stay out of this run.
func TestRepoTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	diags, err := registry.Run(".", "minimaxdp/...")
	if err != nil {
		t.Fatalf("running dpvet suite: %v", err)
	}
	if len(diags) > 0 {
		var b strings.Builder
		for _, d := range diags {
			b.WriteString("\n  " + d.String())
		}
		t.Fatalf("dpvet found %d violation(s) in the repo tree:%s", len(diags), b.String())
	}
}

// TestSuiteComposition pins the analyzer roster so a refactor cannot
// silently drop a check from the CI gate.
func TestSuiteComposition(t *testing.T) {
	want := map[string]bool{
		"ctxfirst": true, "errdiscard": true, "floatflow": true,
		"hotpath": true, "ignoreaudit": true,
		"randsource": true, "ratmutate": true, "ratoverflow": true,
	}
	got := registry.All()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for _, a := range got {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q in suite", a.Name)
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
	}
}
