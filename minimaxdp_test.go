package minimaxdp

import (
	"context"
	"math/big"
	"testing"

	"minimaxdp/internal/derive"
	"minimaxdp/internal/sample"
)

// End-to-end through the public API: build the geometric mechanism,
// post-process as a consumer, and confirm universal optimality.
func TestPublicAPIEndToEnd(t *testing.T) {
	alpha := MustRat("1/2")
	g, err := Geometric(5, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsDP(alpha) {
		t.Fatal("geometric mechanism not DP at its own level")
	}
	c := &Consumer{Loss: AbsoluteLoss(), Side: SideInterval(1, 4)}
	inter, err := OptimalInteraction(c, g)
	if err != nil {
		t.Fatal(err)
	}
	tailored, err := OptimalMechanism(c, 5, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if inter.Loss.Cmp(tailored.Loss) != 0 {
		t.Errorf("universal optimality: interaction %s != tailored %s",
			inter.Loss.RatString(), tailored.Loss.RatString())
	}
}

func TestPublicRatHelpers(t *testing.T) {
	r, err := Rat("2/3")
	if err != nil || r.RatString() != "2/3" {
		t.Errorf("Rat = %v, %v", r, err)
	}
	if _, err := Rat("zzz"); err == nil {
		t.Error("bad rational accepted")
	}
	if MustRat("1/7").RatString() != "1/7" {
		t.Error("MustRat wrong")
	}
}

func TestPublicBaselines(t *testing.T) {
	u, err := Uniform(3)
	if err != nil || !u.IsDP(MustRat("1")) {
		t.Error("Uniform wrong")
	}
	id, err := IdentityMechanism(3)
	if err != nil || id.IsDP(MustRat("1/2")) {
		t.Error("IdentityMechanism wrong")
	}
	rr, err := RandomizedResponse(3, MustRat("1/2"))
	if err != nil || rr.BestAlpha().Sign() <= 0 {
		t.Error("RandomizedResponse wrong")
	}
}

func TestPublicLossConstructors(t *testing.T) {
	n := 5
	for _, l := range []LossFunction{AbsoluteLoss(), SquaredLoss(), ZeroOneLoss(), DeadbandLoss(1)} {
		if err := ValidateLoss(l, n); err != nil {
			t.Errorf("%s invalid: %v", l.Name(), err)
		}
	}
	if AbsoluteLoss().Loss(2, 5).RatString() != "3" {
		t.Error("AbsoluteLoss wrong")
	}
}

func TestPublicDerivability(t *testing.T) {
	alpha := MustRat("1/2")
	g, err := Geometric(3, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if !Derivable(g, alpha) {
		t.Error("G not derivable from itself")
	}
	if _, err := Factor(g, alpha); err != nil {
		t.Errorf("Factor(G) failed: %v", err)
	}
	counter := derive.AppendixB()
	if Derivable(counter, alpha) {
		t.Error("Appendix B counterexample reported derivable")
	}
	tr, err := Transition(3, MustRat("1/4"), MustRat("1/2"))
	if err != nil || !tr.IsStochastic() {
		t.Errorf("Transition = %v, %v", tr, err)
	}
}

func TestPublicMechanismConstructors(t *testing.T) {
	m, err := MechanismFromStrings([][]string{{"1/2", "1/2"}, {"1/2", "1/2"}})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMechanism(m.Matrix())
	if err != nil || !m2.Equal(m) {
		t.Error("NewMechanism round-trip failed")
	}
}

func TestPublicReleasePlan(t *testing.T) {
	plan, err := NewReleasePlan(10, []*big.Rat{MustRat("1/4"), MustRat("1/2")})
	if err != nil {
		t.Fatal(err)
	}
	rng := sample.NewRand(1)
	out, err := plan.Release(7, rng)
	if err != nil || len(out) != 2 {
		t.Fatalf("Release = %v, %v", out, err)
	}
	a, err := plan.CollusionAlpha([]int{1, 2})
	if err != nil || a.RatString() != "1/4" {
		t.Errorf("CollusionAlpha = %v, %v", a, err)
	}
}

// The Bayesian API path: deterministic remap achieves the Bayesian
// tailored optimum (Ghosh et al.).
func TestPublicBayesian(t *testing.T) {
	alpha := MustRat("1/2")
	g, err := Geometric(3, alpha)
	if err != nil {
		t.Fatal(err)
	}
	b := &Bayesian{Loss: AbsoluteLoss(), Prior: UniformPrior(3)}
	inter, err := OptimalBayesianInteraction(b, g)
	if err != nil {
		t.Fatal(err)
	}
	tailored, err := OptimalBayesianMechanism(b, 3, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if inter.Loss.Cmp(tailored.Loss) != 0 {
		t.Errorf("Bayesian optimality: %s != %s", inter.Loss.RatString(), tailored.Loss.RatString())
	}
}

func TestPublicDerivableFromAndDeterministic(t *testing.T) {
	alpha := MustRat("1/2")
	g, err := Geometric(3, alpha)
	if err != nil {
		t.Fatal(err)
	}
	u, err := Uniform(3)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform is derivable from the geometric mechanism (map everything
	// uniformly); the reverse is not.
	if _, err := DerivableFrom(u, g); err != nil {
		t.Errorf("uniform should be derivable from G: %v", err)
	}
	if _, err := DerivableFrom(g, u); err == nil {
		t.Error("G derivable from uniform?!")
	}
	c := &Consumer{Loss: AbsoluteLoss()}
	det, err := OptimalDeterministicInteraction(c, g)
	if err != nil {
		t.Fatal(err)
	}
	randOpt, err := OptimalInteraction(c, g)
	if err != nil {
		t.Fatal(err)
	}
	if det.Loss.Cmp(randOpt.Loss) < 0 {
		t.Error("deterministic beat randomized")
	}
}

func TestPublicEngine(t *testing.T) {
	e := NewEngine(EngineConfig{Seed: 5})
	alpha := MustRat("1/2")
	g1, err := e.Geometric(6, alpha)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := e.Geometric(6, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("engine did not cache the mechanism")
	}
	c := &Consumer{Loss: AbsoluteLoss()}
	tl, err := e.TailoredMechanism(c, 6, alpha)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := OptimalInteraction(c, g1)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 1 through the cached paths.
	if tl.Loss.Cmp(inter.Loss) != 0 {
		t.Errorf("tailored loss %s != interaction loss %s", tl.Loss.RatString(), inter.Loss.RatString())
	}
	s, err := e.Sampler(context.Background(), SamplerSpec{N: 6, Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Sample(3); r < 0 || r > 6 {
		t.Errorf("draw %d out of range", r)
	}
	var m EngineMetrics = e.Metrics()
	if m.Mechanisms.Cache.Hits == 0 || m.SamplerDraws != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

// The compare workbench through the facade: ConsumerModel unifies
// minimax and Bayesian consumers, the baseline constructors build
// exact mechanisms, and Engine.Compare produces the gap scorecard with
// the Theorem 1 zero geometric gap.
func TestPublicCompareWorkbench(t *testing.T) {
	alpha := MustRat("1/2")

	st, err := StaircaseMechanism(4, alpha, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !st.IsDP(alpha) {
		t.Error("staircase not α-DP")
	}
	lap, err := TruncatedLaplaceMechanism(4, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if lap.IsDP(alpha) {
		t.Error("truncated Laplace should NOT be α-DP (renormalization breaks the band)")
	}

	sp, err := ParseBaselineSpec("staircase:3")
	if err != nil || sp.Kind != BaselineStaircase || sp.Width != 3 {
		t.Errorf("ParseBaselineSpec = %+v, %v", sp, err)
	}
	if got := len(DefaultBaselines()); got != 3 {
		t.Errorf("DefaultBaselines has %d entries, want 3", got)
	}

	e := NewEngine(EngineConfig{})
	models := []ConsumerModel{
		&Consumer{Loss: AbsoluteLoss(), Side: SideInterval(1, 3)},
		&Bayesian{Loss: SquaredLoss(), Prior: UniformPrior(4)},
	}
	for _, m := range models {
		var cmp *Comparison
		cmp, err = e.Compare(CompareSpec{N: 4, Alpha: alpha, Model: m})
		if err != nil {
			t.Fatal(err)
		}
		if err = cmp.Validate(); err != nil {
			t.Fatal(err)
		}
		var geo *CompareEntry
		for i := range cmp.Entries {
			if cmp.Entries[i].Spec == string(BaselineGeometric) {
				geo = &cmp.Entries[i]
			}
		}
		if geo == nil {
			t.Fatal("no geometric entry in default baseline set")
		}
		if cmp.Model == "minimax" && geo.Gap.Sign() != 0 {
			t.Errorf("minimax geometric gap = %s, want exactly 0", geo.Gap.RatString())
		}
	}

	// The unified engine surface accepts either model directly.
	if _, err = e.TailoredMechanism(models[1], 4, alpha); err != nil {
		t.Fatal(err)
	}
}
