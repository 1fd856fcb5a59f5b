package engine

import (
	"context"
	"testing"

	"minimaxdp/internal/baseline"
	"minimaxdp/internal/consumer"
	"minimaxdp/internal/loss"
)

// Theorem 1 part 2 as a change detector: for minimax consumers the
// geometric baseline's optimality gap is exactly zero — not small,
// zero — at the paper's Table 1 sizes, across losses and side sets.
// The engine serves the tailored optimum as the geometric interaction,
// so the gap is zero by construction; the scorecard's tailored loss is
// therefore checked against the §2.5 LP, solved here on its own.
func TestCompareMinimaxGeometricGapExactlyZero(t *testing.T) {
	e := newEngine(t, Config{})
	alpha := rat(t, "1/4")
	consumers := []*consumer.Consumer{
		{Loss: loss.Absolute{}},
		{Loss: loss.Squared{}},
		{Loss: loss.ZeroOne{}},
		{Loss: loss.Deadband{Width: 1}},
		{Loss: loss.Absolute{}, Side: consumer.Interval(1, 3)},
		{Loss: loss.Squared{}, Side: []int{0, 2, 3}},
	}
	for _, c := range consumers {
		cmp, err := e.Compare(CompareSpec{N: 3, Alpha: alpha, Model: c})
		if err != nil {
			t.Fatalf("Compare(%s): %v", c.Loss.Name(), err)
		}
		if cmp.Model != "minimax" {
			t.Fatalf("model = %q", cmp.Model)
		}
		if err := cmp.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		opt, err := consumer.OptimalMechanism(c, 3, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if cmp.TailoredLoss.Cmp(opt.Loss) != 0 {
			t.Fatalf("loss %s: scorecard tailored loss %s, §2.5 LP optimum %s",
				c.Loss.Name(), cmp.TailoredLoss.RatString(), opt.Loss.RatString())
		}
		var sawGeometric bool
		for _, entry := range cmp.Entries {
			if entry.Spec != "geometric" {
				continue
			}
			sawGeometric = true
			if entry.Gap.Sign() != 0 {
				t.Fatalf("loss %s: geometric gap = %s, want exactly 0",
					c.Loss.Name(), entry.Gap.RatString())
			}
			if entry.BestAlpha.Cmp(alpha) != 0 {
				t.Fatalf("geometric BestAlpha = %s", entry.BestAlpha.RatString())
			}
		}
		if !sawGeometric {
			t.Fatal("default baseline set lost the geometric entry")
		}
	}
}

// The full default scorecard is internally coherent: per-baseline
// interaction never loses to the raw mechanism, the α-DP baselines
// never beat the tailored optimum, and the not-actually-α-DP
// truncated Laplace reports a weaker BestAlpha.
func TestCompareDefaultScorecard(t *testing.T) {
	e := newEngine(t, Config{})
	alpha := rat(t, "1/3")
	c := &consumer.Consumer{Loss: loss.Absolute{}}
	cmp, err := e.Compare(CompareSpec{N: 4, Alpha: alpha, Model: c})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Entries) != 3 {
		t.Fatalf("default set has %d entries", len(cmp.Entries))
	}
	// The tailored optimum and the geometric row are one interaction
	// solve: three baselines, three LPs.
	if s := e.Metrics().LP.Solves; s != 3 {
		t.Errorf("default compare ran %d LP solves, want 3", s)
	}
	for _, entry := range cmp.Entries {
		if entry.InteractionLoss.Cmp(entry.Loss) > 0 {
			t.Errorf("%s: optimal interaction %s worse than raw loss %s",
				entry.Spec, entry.InteractionLoss.RatString(), entry.Loss.RatString())
		}
		switch entry.Spec {
		case "geometric", "staircase":
			if entry.Gap.Sign() < 0 {
				t.Errorf("%s: α-DP baseline has negative gap %s", entry.Spec, entry.Gap.RatString())
			}
			if entry.BestAlpha.Cmp(alpha) != 0 {
				t.Errorf("%s: BestAlpha = %s, want %s", entry.Spec, entry.BestAlpha.RatString(), alpha.RatString())
			}
		case "laplace":
			if entry.BestAlpha.Cmp(alpha) >= 0 {
				t.Errorf("laplace BestAlpha %s should be strictly below α %s",
					entry.BestAlpha.RatString(), alpha.RatString())
			}
		default:
			t.Errorf("unexpected entry %q", entry.Spec)
		}
	}
}

// Bayesian compares flow through the same class: the scorecard is
// arithmetically valid, and the Bayes-tailored optimum is the floor
// for Bayes-interacted α-DP baselines.
func TestCompareBayesian(t *testing.T) {
	e := newEngine(t, Config{})
	alpha := rat(t, "1/4")
	n := 3
	b := &consumer.Bayesian{Loss: loss.Absolute{}, Prior: consumer.UniformPrior(n)}
	cmp, err := e.Compare(CompareSpec{N: n, Alpha: alpha, Model: b})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Model != "bayesian" {
		t.Fatalf("model = %q", cmp.Model)
	}
	if err := cmp.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, entry := range cmp.Entries {
		if entry.Spec == "laplace" {
			continue // not α-DP, may undercut the tailored floor
		}
		if entry.Gap.Sign() < 0 {
			t.Errorf("%s: Bayesian gap %s negative for an α-DP baseline",
				entry.Spec, entry.Gap.RatString())
		}
	}
	// Minimax and Bayesian compares at the same (n, α) are distinct
	// artifacts: the model identity is part of the key.
	c := &consumer.Consumer{Loss: loss.Absolute{}}
	mm, err := e.Compare(CompareSpec{N: n, Alpha: alpha, Model: c})
	if err != nil {
		t.Fatal(err)
	}
	if mm.Model == cmp.Model {
		t.Fatal("minimax compare served the Bayesian artifact")
	}
}

// A repeat compare is a cache hit, and behaviorally equal specs
// (aliased α, permuted/duplicated baseline set, explicit default
// width) share one artifact.
func TestCompareCachedAndCanonicalized(t *testing.T) {
	e := newEngine(t, Config{})
	c := &consumer.Consumer{Loss: loss.Absolute{}}
	first, err := e.Compare(CompareSpec{N: 3, Alpha: rat(t, "1/2"), Model: c})
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Compare(CompareSpec{
		N:     3,
		Alpha: rat(t, "2/4"),
		Model: c,
		Baselines: []baseline.Spec{
			{Kind: baseline.KindLaplace},
			{Kind: baseline.KindStaircase, Width: 2},
			{Kind: baseline.Geometric},
			{Kind: baseline.Geometric},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("canonically equal compare specs did not share a cache entry")
	}
	m := e.Metrics()
	if m.Compares.Cache.Hits != 1 || m.Compares.Cache.Misses != 1 || m.Compares.Requests != 2 {
		t.Fatalf("compare stats = %+v", m.Compares)
	}
}

// Compare errors surface before any caching: nil model, bad prior,
// bad baseline, empty side set.
func TestCompareInvalidSpecs(t *testing.T) {
	e := newEngine(t, Config{})
	alpha := rat(t, "1/2")
	if _, err := e.Compare(CompareSpec{N: 3, Alpha: alpha}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := e.Compare(CompareSpec{N: 3, Model: &consumer.Consumer{Loss: loss.Absolute{}}}); err == nil {
		t.Error("nil alpha accepted")
	}
	badPrior := &consumer.Bayesian{Loss: loss.Absolute{}, Prior: consumer.UniformPrior(5)}
	if _, err := e.Compare(CompareSpec{N: 3, Alpha: alpha, Model: badPrior}); err == nil {
		t.Error("length-mismatched prior accepted")
	}
	emptySide := &consumer.Consumer{Loss: loss.Absolute{}, Side: []int{99}}
	if _, err := e.Compare(CompareSpec{N: 3, Alpha: alpha, Model: emptySide}); err == nil {
		t.Error("empty clipped side set accepted")
	}
	badBaseline := CompareSpec{
		N: 3, Alpha: alpha, Model: &consumer.Consumer{Loss: loss.Absolute{}},
		Baselines: []baseline.Spec{{Kind: baseline.Geometric, Width: 7}},
	}
	if _, err := e.Compare(badBaseline); err == nil {
		t.Error("geometric-with-width baseline accepted")
	}
	if m := e.Metrics(); m.Compares.Cache.Misses != 0 {
		t.Errorf("invalid specs reached the compute path: %+v", m.Compares)
	}
}

// The compare class shares its nested artifacts: a compare after a
// tailored+interaction warm-up runs zero additional LP solves for the
// geometric row, and a tailored request after a compare is a pure
// cache hit.
func TestCompareSharesNestedArtifacts(t *testing.T) {
	e := newEngine(t, Config{})
	alpha := rat(t, "1/4")
	c := &consumer.Consumer{Loss: loss.Absolute{}}
	ctx := context.Background()
	if _, err := e.TailoredCtx(ctx, c, 3, alpha); err != nil {
		t.Fatal(err)
	}
	if _, err := e.InteractionCtx(ctx, c, 3, alpha); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CompareCtx(ctx, CompareSpec{
		N: 3, Alpha: alpha, Model: c,
		Baselines: []baseline.Spec{{Kind: baseline.Geometric}},
	}); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.Tailored.Cache.Misses != 1 {
		t.Errorf("compare re-solved the tailored LP: %+v", m.Tailored.Cache)
	}
	if m.Interactions.Cache.Misses != 1 {
		t.Errorf("compare re-solved the interaction LP: %+v", m.Interactions.Cache)
	}
	if m.Tailored.Cache.Hits < 1 || m.Interactions.Cache.Hits < 1 {
		t.Errorf("compare did not hit the warm LP caches: tailored %+v interactions %+v",
			m.Tailored.Cache, m.Interactions.Cache)
	}
}
