package main

import (
	"strings"
	"testing"
)

// TestGapSweep runs the full -mode=gap sweep: it must certify at
// least one minimax identity per grid cell (a violated certificate is
// an error, so success here IS the Theorem 1 oracle), and the gap
// tables must cover both models and every default baseline.
func TestGapSweep(t *testing.T) {
	var b strings.Builder
	if err := runGapSweep(&b, config{seed: 7, trials: 10}); err != nil {
		t.Fatalf("gap sweep: %v\noutput so far:\n%s", err, b.String())
	}
	out := b.String()
	if !strings.Contains(out, "zero-gap certificate") {
		t.Error("missing certificate line")
	}
	if !strings.Contains(out, "Tailored LP cross-check") {
		t.Error("missing tailored LP cross-check line")
	}
	for _, want := range []string{"geometric", "staircase", "laplace", "minimax", "bayesian", "gap=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q", want)
		}
	}
	// The sweep is deterministic in its seed: same seed, same tables.
	var b2 strings.Builder
	if err := runGapSweep(&b2, config{seed: 7, trials: 10}); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("gap sweep not deterministic for a fixed seed")
	}
	var b3 strings.Builder
	if err := runGapSweep(&b3, config{seed: 8, trials: 10}); err != nil {
		t.Fatalf("seed 8: %v", err)
	}
	if b3.String() == out {
		t.Error("gap sweep ignored its seed (random consumer panel never varied)")
	}
}
