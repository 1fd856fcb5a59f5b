package consumer

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"minimaxdp/internal/baseline"
	"minimaxdp/internal/loss"
	"minimaxdp/internal/lp"
	"minimaxdp/internal/matrix"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
)

func r(s string) *big.Rat { return rational.MustParse(s) }

func geo(t *testing.T, n int, alpha string) *mechanism.Mechanism {
	t.Helper()
	g, err := mechanism.Geometric(n, r(alpha))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestInterval(t *testing.T) {
	if got := Interval(2, 4); len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Errorf("Interval(2,4) = %v", got)
	}
	if got := Interval(3, 2); got != nil {
		t.Errorf("Interval(3,2) = %v, want nil", got)
	}
}

func TestSideNormalization(t *testing.T) {
	c := &Consumer{Loss: loss.Absolute{}, Side: []int{5, 1, 1, -3, 99}}
	s, err := c.side(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 || s[0] != 1 || s[1] != 5 {
		t.Errorf("side = %v", s)
	}
	empty := &Consumer{Loss: loss.Absolute{}, Side: []int{-1, 99}}
	if _, err := empty.side(3); !errors.Is(err, ErrEmptySide) {
		t.Errorf("want ErrEmptySide, got %v", err)
	}
	full := &Consumer{Loss: loss.Absolute{}}
	s, err = full.side(3)
	if err != nil || len(s) != 4 {
		t.Errorf("default side = %v, %v", s, err)
	}
}

func TestExpectedAndMinimaxLoss(t *testing.T) {
	// Uniform mechanism on {0..2}, absolute loss. Expected loss at
	// i=0: (0+1+2)/3 = 1; at i=1: (1+0+1)/3 = 2/3. Minimax = 1.
	u, err := mechanism.Uniform(2)
	if err != nil {
		t.Fatal(err)
	}
	c := &Consumer{Loss: loss.Absolute{}}
	if got := c.ExpectedLoss(u, 0); got.Cmp(r("1")) != 0 {
		t.Errorf("ExpectedLoss(0) = %s", got.RatString())
	}
	if got := c.ExpectedLoss(u, 1); got.Cmp(r("2/3")) != 0 {
		t.Errorf("ExpectedLoss(1) = %s", got.RatString())
	}
	mm, err := c.MinimaxLoss(u)
	if err != nil {
		t.Fatal(err)
	}
	if mm.Cmp(r("1")) != 0 {
		t.Errorf("MinimaxLoss = %s", mm.RatString())
	}
	// With side info {1} the worst case shrinks to 2/3.
	c2 := &Consumer{Loss: loss.Absolute{}, Side: []int{1}}
	mm, err = c2.MinimaxLoss(u)
	if err != nil {
		t.Fatal(err)
	}
	if mm.Cmp(r("2/3")) != 0 {
		t.Errorf("MinimaxLoss with side = %s", mm.RatString())
	}
}

// The paper's Table 1 instance: n=3, α=1/4, l=|i−r|, S={0..3}.
// The tailored LP optimum must equal the loss the consumer achieves by
// optimally post-processing the deployed geometric mechanism
// (Theorem 1 part 2 on this instance), and both must equal the loss of
// the paper's printed interaction matrix Table 1(c).
func TestTable1Instance(t *testing.T) {
	c := &Consumer{Loss: loss.Absolute{}, Name: "table1"}
	alpha := r("1/4")
	g := geo(t, 3, "1/4")

	tailored, err := OptimalMechanism(c, 3, alpha)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := OptimalInteraction(c, g)
	if err != nil {
		t.Fatal(err)
	}
	if tailored.Loss.Cmp(inter.Loss) != 0 {
		t.Fatalf("universal optimality fails on Table 1 instance: tailored %s vs interaction %s",
			tailored.Loss.RatString(), inter.Loss.RatString())
	}

	// The paper's printed interaction matrix (Table 1(c)). Our exact
	// LP shows the printed values are slightly off: they achieve
	// 357/880 ≈ 0.4057 while the true optimum is 168/415 ≈ 0.4048
	// (Table 1(a) also has rows summing to more than 1, so Table 1 is
	// known to carry transcription errors; see EXPERIMENTS.md T1).
	paperT := matrix.MustFromStrings([][]string{
		{"9/11", "2/11", "0", "0"},
		{"0", "1", "0", "0"},
		{"0", "0", "1", "0"},
		{"0", "0", "2/11", "9/11"},
	})
	induced, err := g.PostProcess(paperT)
	if err != nil {
		t.Fatal(err)
	}
	paperLoss, err := c.MinimaxLoss(induced)
	if err != nil {
		t.Fatal(err)
	}
	if paperLoss.Cmp(r("357/880")) != 0 {
		t.Errorf("paper's Table 1(c) interaction achieves %s, expected 357/880", paperLoss.RatString())
	}
	if tailored.Loss.Cmp(r("168/415")) != 0 {
		t.Errorf("Table 1 exact optimum = %s, want 168/415", tailored.Loss.RatString())
	}
	if tailored.Loss.Cmp(paperLoss) > 0 {
		t.Errorf("LP optimum %s worse than the paper's printed interaction %s",
			tailored.Loss.RatString(), paperLoss.RatString())
	}
	// The optimal interaction has the paper's *shape*: interior rows
	// map to themselves deterministically; boundary rows randomize
	// between the boundary output and its neighbour (exact values
	// 68/83 and 15/83).
	if inter.T.At(1, 1).Cmp(rational.One()) != 0 || inter.T.At(2, 2).Cmp(rational.One()) != 0 {
		t.Errorf("interior rows of optimal T are not identity:\n%s", inter.T)
	}
	if inter.T.At(0, 0).Cmp(r("68/83")) != 0 || inter.T.At(0, 1).Cmp(r("15/83")) != 0 {
		t.Errorf("boundary row of optimal T = (%s, %s), want (68/83, 15/83)",
			inter.T.At(0, 0).RatString(), inter.T.At(0, 1).RatString())
	}
	// Minimax optimality equalizes the per-input losses: every row of
	// the tailored mechanism attains exactly the optimum.
	for i := 0; i <= 3; i++ {
		if got := c.ExpectedLoss(tailored.Mechanism, i); got.Cmp(tailored.Loss) != 0 {
			t.Errorf("row %d loss %s not equalized at %s", i, got.RatString(), tailored.Loss.RatString())
		}
	}
	// Sanity: the tailored mechanism is a valid α-DP mechanism.
	if err := tailored.Mechanism.CheckDP(alpha); err != nil {
		t.Errorf("tailored mechanism not α-DP: %v", err)
	}
	// And the minimax loss it reports matches direct evaluation.
	direct, err := c.MinimaxLoss(tailored.Mechanism)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Cmp(tailored.Loss) != 0 {
		t.Errorf("reported loss %s != evaluated loss %s", tailored.Loss.RatString(), direct.RatString())
	}
}

// Universal optimality (Theorem 1 part 2) across a grid of losses,
// side-information sets, and privacy levels: interacting with the
// deployed geometric mechanism always matches the tailored optimum.
func TestUniversalOptimalityGrid(t *testing.T) {
	n := 3
	losses := []loss.Function{loss.Absolute{}, loss.Squared{}, loss.ZeroOne{}, loss.Deadband{Width: 1}}
	sides := [][]int{nil, Interval(1, 3), Interval(0, 1), {0, 2}}
	alphas := []string{"1/4", "1/2", "2/3"}
	for _, lf := range losses {
		for _, s := range sides {
			for _, as := range alphas {
				c := &Consumer{Loss: lf, Side: s}
				alpha := r(as)
				g := geo(t, n, as)
				tailored, err := OptimalMechanism(c, n, alpha)
				if err != nil {
					t.Fatalf("%s/%v/%s tailored: %v", lf.Name(), s, as, err)
				}
				inter, err := OptimalInteraction(c, g)
				if err != nil {
					t.Fatalf("%s/%v/%s interaction: %v", lf.Name(), s, as, err)
				}
				if tailored.Loss.Cmp(inter.Loss) != 0 {
					t.Errorf("loss=%s side=%v α=%s: tailored %s != interaction %s",
						lf.Name(), s, as, tailored.Loss.RatString(), inter.Loss.RatString())
				}
			}
		}
	}
}

// No interaction can beat the tailored LP optimum (the LP really is a
// lower bound over derived mechanisms): clamping — the naive remap
// from Example 1 — is never better, and is strictly worse somewhere.
func TestClampingIsSuboptimal(t *testing.T) {
	n := 4
	g := geo(t, n, "1/2")
	// Consumer knows result ≥ 2 (drug-company lower bound).
	c := &Consumer{Loss: loss.Absolute{}, Side: Interval(2, 4)}
	inter, err := OptimalInteraction(c, g)
	if err != nil {
		t.Fatal(err)
	}
	// Naive clamp into [2,4].
	clamp := matrix.New(n+1, n+1)
	for rr := 0; rr <= n; rr++ {
		target := rr
		if target < 2 {
			target = 2
		}
		clamp.Set(rr, target, rational.One())
	}
	clamped, err := g.PostProcess(clamp)
	if err != nil {
		t.Fatal(err)
	}
	clampLoss, err := c.MinimaxLoss(clamped)
	if err != nil {
		t.Fatal(err)
	}
	if clampLoss.Cmp(inter.Loss) < 0 {
		t.Fatalf("clamping (%s) beat the LP optimum (%s)", clampLoss.RatString(), inter.Loss.RatString())
	}
}

// The optimal minimax interaction is genuinely randomized on the
// Table 1 instance (Section 2.7's contrast with Bayesian consumers):
// some row of T has two or more non-zero entries.
func TestMinimaxInteractionIsRandomized(t *testing.T) {
	c := &Consumer{Loss: loss.Absolute{}}
	g := geo(t, 3, "1/4")
	inter, err := OptimalInteraction(c, g)
	if err != nil {
		t.Fatal(err)
	}
	randomized := false
	for rr := 0; rr <= 3 && !randomized; rr++ {
		nz := 0
		for rp := 0; rp <= 3; rp++ {
			if inter.T.At(rr, rp).Sign() != 0 {
				nz++
			}
		}
		if nz > 1 {
			randomized = true
		}
	}
	if !randomized {
		t.Errorf("optimal minimax interaction is deterministic:\n%s", inter.T)
	}
}

func TestOptimalMechanismValidation(t *testing.T) {
	c := &Consumer{Loss: loss.Absolute{}}
	if _, err := OptimalMechanism(c, 0, r("1/2")); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := OptimalMechanism(c, 3, r("2")); err == nil {
		t.Error("α>1 accepted")
	}
	bad := &Consumer{Loss: loss.Absolute{}, Side: []int{-5}}
	if _, err := OptimalMechanism(bad, 3, r("1/2")); !errors.Is(err, ErrEmptySide) {
		t.Errorf("want ErrEmptySide, got %v", err)
	}
	if _, err := OptimalInteraction(bad, geo(t, 3, "1/2")); !errors.Is(err, ErrEmptySide) {
		t.Errorf("want ErrEmptySide, got %v", err)
	}
	mm := &Consumer{Loss: loss.Absolute{}, Side: []int{9}}
	if _, err := mm.MinimaxLoss(geo(t, 3, "1/2")); !errors.Is(err, ErrEmptySide) {
		t.Errorf("want ErrEmptySide, got %v", err)
	}
}

// α = 1 forces all rows identical; the optimal mechanism degenerates
// to a constant distribution and the optimum equals the best constant
// response's worst-case loss.
func TestPerfectPrivacyDegenerates(t *testing.T) {
	c := &Consumer{Loss: loss.Absolute{}}
	tl, err := OptimalMechanism(c, 2, rational.One())
	if err != nil {
		t.Fatal(err)
	}
	// All rows must be identical.
	m := tl.Mechanism
	for rr := 0; rr <= 2; rr++ {
		if m.Prob(0, rr).Cmp(m.Prob(1, rr)) != 0 || m.Prob(1, rr).Cmp(m.Prob(2, rr)) != 0 {
			t.Fatalf("α=1 mechanism has input-dependent rows:\n%s", m)
		}
	}
	// Best constant answer for |i−r| on {0,1,2} is r=1 with worst loss 1.
	if tl.Loss.Cmp(r("1")) != 0 {
		t.Errorf("α=1 optimum = %s, want 1", tl.Loss.RatString())
	}
}

// α = 0 imposes no DP constraint; the identity mechanism is feasible
// and the optimum is 0.
func TestNoPrivacyIsFree(t *testing.T) {
	c := &Consumer{Loss: loss.Squared{}}
	tl, err := OptimalMechanism(c, 3, rational.Zero())
	if err != nil {
		t.Fatal(err)
	}
	if tl.Loss.Sign() != 0 {
		t.Errorf("α=0 optimum = %s, want 0", tl.Loss.RatString())
	}
}

// --- Bayesian model -------------------------------------------------------

func TestUniformPriorAndValidate(t *testing.T) {
	b := &Bayesian{Loss: loss.Absolute{}, Prior: UniformPrior(3)}
	if err := b.ValidatePrior(3); err != nil {
		t.Fatal(err)
	}
	if err := b.ValidatePrior(4); err == nil {
		t.Error("length mismatch accepted")
	}
	bad := &Bayesian{Loss: loss.Absolute{}, Prior: []*big.Rat{r("1/2"), r("1/4")}}
	if err := bad.ValidatePrior(1); err == nil {
		t.Error("non-normalized prior accepted")
	}
	neg := &Bayesian{Loss: loss.Absolute{}, Prior: []*big.Rat{r("3/2"), r("-1/2")}}
	if err := neg.ValidatePrior(1); err == nil {
		t.Error("negative prior accepted")
	}
}

func TestBayesianExpectedLoss(t *testing.T) {
	u, err := mechanism.Uniform(2)
	if err != nil {
		t.Fatal(err)
	}
	b := &Bayesian{Loss: loss.Absolute{}, Prior: UniformPrior(2)}
	got, err := b.ExpectedLoss(u)
	if err != nil {
		t.Fatal(err)
	}
	// (1 + 2/3 + 1)/3 = 8/9.
	if got.Cmp(r("8/9")) != 0 {
		t.Errorf("Bayesian expected loss = %s, want 8/9", got.RatString())
	}
	badPrior := &Bayesian{Loss: loss.Absolute{}, Prior: UniformPrior(5)}
	if _, err := badPrior.ExpectedLoss(u); err == nil {
		t.Error("prior length mismatch accepted")
	}
}

// Ghosh et al.'s theorem, reproduced through our machinery: for every
// Bayesian consumer, deterministically post-processing the geometric
// mechanism matches the Bayesian-optimal tailored DP mechanism.
func TestBayesianUniversalOptimality(t *testing.T) {
	n := 3
	priors := [][]*big.Rat{
		UniformPrior(n),
		{r("1/2"), r("1/4"), r("1/8"), r("1/8")},
		{r("0"), r("0"), r("1/2"), r("1/2")},
	}
	losses := []loss.Function{loss.Absolute{}, loss.Squared{}, loss.ZeroOne{}}
	for _, prior := range priors {
		for _, lf := range losses {
			for _, as := range []string{"1/4", "1/2"} {
				b := &Bayesian{Loss: lf, Prior: prior}
				g := geo(t, n, as)
				inter, err := OptimalBayesianInteraction(b, g)
				if err != nil {
					t.Fatal(err)
				}
				tailored, err := OptimalBayesianMechanism(b, n, r(as))
				if err != nil {
					t.Fatal(err)
				}
				if inter.Loss.Cmp(tailored.Loss) != 0 {
					t.Errorf("loss=%s α=%s: Bayesian interaction %s != tailored %s",
						lf.Name(), as, inter.Loss.RatString(), tailored.Loss.RatString())
				}
			}
		}
	}
}

// Bayesian post-processing is deterministic by construction: T must be
// a 0/1 matrix with exactly one 1 per row, matching Remap.
func TestBayesianInteractionDeterministic(t *testing.T) {
	b := &Bayesian{Loss: loss.Absolute{}, Prior: UniformPrior(3)}
	g := geo(t, 3, "1/4")
	inter, err := OptimalBayesianInteraction(b, g)
	if err != nil {
		t.Fatal(err)
	}
	for rr := 0; rr <= 3; rr++ {
		ones := 0
		for rp := 0; rp <= 3; rp++ {
			v := inter.T.At(rr, rp)
			switch {
			case v.Sign() == 0:
			case v.Cmp(rational.One()) == 0:
				ones++
				if inter.Remap[rr] != rp {
					t.Errorf("Remap[%d] = %d but T has 1 at %d", rr, inter.Remap[rr], rp)
				}
			default:
				t.Errorf("T[%d][%d] = %s is fractional", rr, rp, v.RatString())
			}
		}
		if ones != 1 {
			t.Errorf("row %d has %d ones", rr, ones)
		}
	}
}

func TestOptimalBayesianValidation(t *testing.T) {
	b := &Bayesian{Loss: loss.Absolute{}, Prior: UniformPrior(2)}
	if _, err := OptimalBayesianMechanism(b, 3, r("1/2")); err == nil {
		t.Error("prior/n mismatch accepted")
	}
	if _, err := OptimalBayesianInteraction(b, geo(t, 3, "1/2")); err == nil {
		t.Error("prior/n mismatch accepted in interaction")
	}
}

// Property: the optimal interaction never does worse than taking the
// deployed mechanism at face value (post-processing can only help a
// rational consumer).
func TestInteractionNeverWorseThanFaceValue(t *testing.T) {
	for _, lf := range []loss.Function{loss.Absolute{}, loss.Squared{}, loss.ZeroOne{}} {
		for _, as := range []string{"1/4", "1/2", "3/4"} {
			for _, side := range [][]int{nil, Interval(1, 3), {0, 4}} {
				c := &Consumer{Loss: lf, Side: side}
				g := geo(t, 4, as)
				face, err := c.MinimaxLoss(g)
				if err != nil {
					t.Fatal(err)
				}
				inter, err := OptimalInteraction(c, g)
				if err != nil {
					t.Fatal(err)
				}
				if inter.Loss.Cmp(face) > 0 {
					t.Errorf("loss=%s α=%s side=%v: interaction %s worse than face value %s",
						lf.Name(), as, side, inter.Loss.RatString(), face.RatString())
				}
			}
		}
	}
}

// Property: shrinking side information (more knowledge) never hurts
// the optimal interaction.
func TestMoreSideInformationNeverHurts(t *testing.T) {
	g := geo(t, 4, "1/2")
	lf := loss.Absolute{}
	full := &Consumer{Loss: lf}
	informed := &Consumer{Loss: lf, Side: Interval(1, 3)}
	fullInter, err := OptimalInteraction(full, g)
	if err != nil {
		t.Fatal(err)
	}
	informedInter, err := OptimalInteraction(informed, g)
	if err != nil {
		t.Fatal(err)
	}
	if informedInter.Loss.Cmp(fullInter.Loss) > 0 {
		t.Errorf("more side info gave worse loss: %s > %s",
			informedInter.Loss.RatString(), fullInter.Loss.RatString())
	}
}

// TestGeometricOptimalCoversWireLosses: every loss a serving surface
// can parse (loss.ParseSpec) meets Theorem 1's hypotheses at every
// served n for α ∈ (0, 1), so no wire request reaches the tailored LP
// at such α; α ∉ (0, 1) and losses not monotone in |i−r| do.
func TestGeometricOptimalCoversWireLosses(t *testing.T) {
	half := r("1/2")
	for _, name := range loss.Names() {
		widths := []string{""}
		if name == "deadband" {
			widths = []string{"", "0", "3", "40"}
		}
		for _, w := range widths {
			lf, err := loss.ParseSpec(name, w)
			if err != nil {
				t.Fatal(err)
			}
			for n := 1; n <= 32; n++ {
				for _, m := range []Model{&Consumer{Loss: lf}, &Bayesian{Loss: lf, Prior: UniformPrior(n)}} {
					if !GeometricOptimal(m, n, half) {
						t.Errorf("%s %s at n=%d: outside Theorem 1's hypotheses", m.ModelName(), lf.Name(), n)
					}
				}
			}
		}
	}
	c := &Consumer{Loss: loss.Absolute{}}
	for _, a := range []string{"0", "1", "3/2"} {
		if GeometricOptimal(c, 8, r(a)) {
			t.Errorf("α=%s accepted: G_{n,α} is undefined there", a)
		}
	}
	asym := loss.Asymmetric{Over: r("1"), Under: r("2")}
	if GeometricOptimal(&Consumer{Loss: asym}, 8, half) {
		t.Error("asymmetric loss accepted: it is not monotone in |i−r|")
	}
}

// TestServedInteractionGridCertifies guards the crossover on the LPs
// the server solves: the interaction LP of every wire loss × {full,
// interval} side × α ∈ {1/3, 1/2, 2/3} against G_{n,α} (n ∈ {6, 8,
// 16}) and against the laplace and staircase baselines (n ∈ {6, 8}).
// Each warm solve must finish without the cold fallback, and at n ≤ 8
// serve StrategyExact's bytes. The crossover sends any infeasible
// candidate basis to the fallback, so a float change that stops
// certifying this grid shows here.
func TestServedInteractionGridCertifies(t *testing.T) {
	losses := []loss.Function{loss.Absolute{}, loss.Squared{}, loss.ZeroOne{}, loss.Deadband{Width: 1}}
	type deployed struct {
		name string
		m    *mechanism.Mechanism
	}
	for _, a := range []string{"1/3", "1/2", "2/3"} {
		alpha := r(a)
		for _, n := range []int{6, 8, 16} {
			mechs := []deployed{{"geometric", geo(t, n, a)}}
			if n <= 8 {
				for _, spec := range []baseline.Spec{{Kind: baseline.KindLaplace}, {Kind: baseline.KindStaircase}} {
					m, err := spec.Build(n, alpha)
					if err != nil {
						t.Fatal(err)
					}
					mechs = append(mechs, deployed{spec.String(), m})
				}
			}
			for _, d := range mechs {
				for _, l := range losses {
					for _, side := range [][]int{nil, Interval(1, n-1)} {
						c := &Consumer{Loss: l, Side: side}
						name := fmt.Sprintf("%s/n=%d/α=%s/%s/side=%v", d.name, n, a, l.Name(), side)
						var stats lp.SolveStats
						warm, err := OptimalInteractionOpts(context.Background(), c, d.m, lp.SolveOpts{Stats: &stats})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if stats.Fallback {
							t.Errorf("%s: cold fallback ran: %+v", name, stats)
						}
						if n > 8 {
							continue
						}
						exact, err := OptimalInteractionOpts(context.Background(), c, d.m, lp.SolveOpts{Strategy: lp.StrategyExact})
						if err != nil {
							t.Fatalf("%s exact: %v", name, err)
						}
						if warm.Loss.Cmp(exact.Loss) != 0 || !warm.T.Equal(exact.T) {
							t.Errorf("%s: warm solve differs from StrategyExact", name)
						}
					}
				}
			}
		}
	}
}
