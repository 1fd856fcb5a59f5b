// Benchmarks regenerating the cost profile of every paper artifact
// (one benchmark per table/figure, DESIGN.md §3) plus the ablation
// benchmarks of DESIGN.md §5. Run with:
//
//	go test -bench=. -benchmem
package minimaxdp

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"testing"

	"minimaxdp/internal/consumer"
	"minimaxdp/internal/database"
	"minimaxdp/internal/derive"
	"minimaxdp/internal/laplace"
	"minimaxdp/internal/loss"
	"minimaxdp/internal/lp"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
	"minimaxdp/internal/release"
	"minimaxdp/internal/sample"
)

// --- F1: Figure 1 (two-sided geometric sampling) --------------------------

func BenchmarkFigure1Sampling(b *testing.B) {
	rng := sample.NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = sample.TwoSidedGeometric(0.2, rng)
	}
}

// --- T1: Table 1 (the two LPs and the mechanism) ---------------------------

func BenchmarkTable1Geometric(b *testing.B) {
	alpha := MustRat("1/4")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mechanism.Geometric(3, alpha); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1OptimalLP(b *testing.B) {
	alpha := MustRat("1/4")
	c := &consumer.Consumer{Loss: loss.Absolute{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := consumer.OptimalMechanism(c, 3, alpha); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Interaction(b *testing.B) {
	alpha := MustRat("1/4")
	g, err := mechanism.Geometric(3, alpha)
	if err != nil {
		b.Fatal(err)
	}
	c := &consumer.Consumer{Loss: loss.Absolute{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := consumer.OptimalInteraction(c, g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- T2: Table 2 (constructing G and G′ across sizes) ----------------------

func BenchmarkTable2Construct(b *testing.B) {
	alpha := MustRat("1/2")
	for _, n := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mechanism.Geometric(n, alpha); err != nil {
					b.Fatal(err)
				}
				if _, err := mechanism.GeometricPrime(n, alpha); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- EB: Appendix B (derivability of the counterexample) -------------------

func BenchmarkAppendixB(b *testing.B) {
	m := derive.AppendixB()
	alpha := MustRat("1/2")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if derive.Derivable(m, alpha) {
			b.Fatal("counterexample reported derivable")
		}
	}
}

// --- ETh2: Theorem 2 condition check vs full factorization -----------------

func BenchmarkTheorem2Check(b *testing.B) {
	alpha := MustRat("1/2")
	g, err := mechanism.Geometric(8, alpha)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("condition", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !derive.Derivable(g, alpha) {
				b.Fatal("G not derivable from itself")
			}
		}
	})
	b.Run("factorization", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := derive.Factor(g, alpha); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- EL1: Lemma 1 (determinants) -------------------------------------------

func BenchmarkDeterminant(b *testing.B) {
	alpha := MustRat("1/2")
	for _, n := range []int{4, 8, 16} {
		g, err := mechanism.Geometric(n, alpha)
		if err != nil {
			b.Fatal(err)
		}
		m := g.Matrix()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Det(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation (DESIGN.md §5): Gaussian-elimination determinant vs cofactor
// expansion.
func BenchmarkDetBareissVsCofactor(b *testing.B) {
	alpha := MustRat("1/2")
	g, err := mechanism.Geometric(6, alpha)
	if err != nil {
		b.Fatal(err)
	}
	m := g.Matrix()
	b.Run("elimination", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.Det(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cofactor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.DetCofactor(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- EL3: Lemma 3 (transition construction) --------------------------------

func BenchmarkTransition(b *testing.B) {
	a := MustRat("1/4")
	bb := MustRat("1/2")
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := derive.Transition(n, a, bb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation (DESIGN.md §5): the closed-form tridiagonal inverse vs
// Gauss–Jordan for G⁻¹.
func BenchmarkGeometricInverseClosedVsGauss(b *testing.B) {
	alpha := MustRat("1/2")
	const n = 32
	g, err := mechanism.Geometric(n, alpha)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("closed-form", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mechanism.GeometricInverse(n, alpha); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gauss-jordan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := g.Matrix().Inverse(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- ETh1: Theorem 1 universal optimality ----------------------------------

func BenchmarkUniversalOptimality(b *testing.B) {
	alpha := MustRat("1/2")
	g, err := mechanism.Geometric(4, alpha)
	if err != nil {
		b.Fatal(err)
	}
	c := &consumer.Consumer{Loss: loss.Squared{}, Side: consumer.Interval(1, 4)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tailored, err := consumer.OptimalMechanism(c, 4, alpha)
		if err != nil {
			b.Fatal(err)
		}
		inter, err := consumer.OptimalInteraction(c, g)
		if err != nil {
			b.Fatal(err)
		}
		if tailored.Loss.Cmp(inter.Loss) != 0 {
			b.Fatal("universal optimality violated")
		}
	}
}

// --- ECol: collusion-resistant release -------------------------------------

func BenchmarkCollusionRelease(b *testing.B) {
	alphas := []*big.Rat{MustRat("1/2"), MustRat("11/20"), MustRat("3/5")}
	plan, err := release.NewPlan(30, alphas)
	if err != nil {
		b.Fatal(err)
	}
	rng := sample.NewRand(1)
	b.Run("cascade", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Release(15, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := plan.NaiveRelease(15, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- EBay: Bayesian consumer path ------------------------------------------

func BenchmarkBayesian(b *testing.B) {
	alpha := MustRat("1/2")
	g, err := mechanism.Geometric(5, alpha)
	if err != nil {
		b.Fatal(err)
	}
	bay := &consumer.Bayesian{Loss: loss.Absolute{}, Prior: consumer.UniformPrior(5)}
	b.Run("interaction", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := consumer.OptimalBayesianInteraction(bay, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tailored-LP", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := consumer.OptimalBayesianMechanism(bay, 5, alpha); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- EObl: Appendix A reduction --------------------------------------------

func BenchmarkObliviousReduction(b *testing.B) {
	mk := func(a1, b1 bool) *database.Database {
		return database.New([]database.Row{
			{Name: "r0", Age: 30, City: "X", HasFlu: a1},
			{Name: "r1", Age: 30, City: "X", HasFlu: b1},
		})
	}
	q := database.CountQuery{Name: "ones", Pred: func(r database.Row) bool { return r.HasFlu }}
	uni := []*database.Database{mk(false, false), mk(false, true), mk(true, false), mk(true, true)}
	m := &database.NonOblivious{Universe: uni, Query: q, Probs: [][]float64{
		{0.9, 0.1, 0}, {0.2, 0.8, 0}, {0, 0.6, 0.4}, {0, 0.1, 0.9},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.ObliviousReduction(2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: float-guided warm start vs cold exact solve -----------------

// buildTailoredLP constructs the §2.5 tailored-mechanism LP for the
// absolute-loss consumer at size n: the BenchmarkTable1OptimalLP
// workload when n=3, α=1/4.
func buildTailoredLP(n int, alpha *big.Rat) *lp.Problem {
	lf := loss.Absolute{}
	p := lp.NewProblem(lp.Minimize)
	d := p.NewVariable("d")
	xv := make([][]lp.Var, n+1)
	for i := 0; i <= n; i++ {
		xv[i] = make([]lp.Var, n+1)
		for r := 0; r <= n; r++ {
			xv[i][r] = p.NewVariable("x")
		}
	}
	p.SetObjective(lp.TInt(d, 1))
	for i := 0; i <= n; i++ {
		terms := []lp.Term{lp.TInt(d, 1)}
		for r := 0; r <= n; r++ {
			if lf.Loss(i, r).Sign() != 0 {
				terms = append(terms, lp.T(xv[i][r], rational.Neg(lf.Loss(i, r))))
			}
		}
		p.AddConstraint(terms, lp.GE, rational.Zero())
	}
	negAlpha := rational.Neg(alpha)
	for i := 0; i < n; i++ {
		for r := 0; r <= n; r++ {
			p.AddConstraint([]lp.Term{lp.TInt(xv[i][r], 1), lp.T(xv[i+1][r], negAlpha)}, lp.GE, rational.Zero())
			p.AddConstraint([]lp.Term{lp.TInt(xv[i+1][r], 1), lp.T(xv[i][r], negAlpha)}, lp.GE, rational.Zero())
		}
	}
	for i := 0; i <= n; i++ {
		terms := make([]lp.Term, 0, n+1)
		for r := 0; r <= n; r++ {
			terms = append(terms, lp.TInt(xv[i][r], 1))
		}
		p.AddConstraint(terms, lp.EQ, rational.One())
	}
	return p
}

// BenchmarkSimplexWarmStart is the tentpole ablation: the cold
// two-phase exact solve versus the float-guided warm start on the
// Table 1 tailored LP. The warmstart sub-benchmark asserts the
// crossover certificate actually hit (no exact pivots, no fallback),
// so the numbers compare the paths the names claim.
func BenchmarkSimplexWarmStart(b *testing.B) {
	alpha := MustRat("1/4")
	run := func(strategy lp.Strategy) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := buildTailoredLP(3, alpha)
				var stats lp.SolveStats
				sol, err := p.SolveWithOpts(context.Background(),
					lp.SolveOpts{Strategy: strategy, Stats: &stats})
				if err != nil || sol.Status != lp.Optimal {
					b.Fatalf("%v %v", sol, err)
				}
				if strategy == lp.StrategyWarmStart && !stats.WarmStartHit {
					b.Fatalf("warm start did not hit: %+v", stats)
				}
			}
		}
	}
	b.Run("exact", run(lp.StrategyExact))
	b.Run("warmstart", run(lp.StrategyWarmStart))
}

// --- Ablation: interaction LP vs direct factorization ----------------------

// When the target mechanism is known to be derivable (here: G_β from
// G_α), the LP and the linear-algebra factorization produce
// transitions of equal quality; the factorization is much cheaper.
func BenchmarkInteractionLPvsFactor(b *testing.B) {
	alphaLo := MustRat("1/4")
	alphaHi := MustRat("1/2")
	const n = 6
	gHi, err := mechanism.Geometric(n, alphaHi)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("factor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := derive.Factor(gHi, alphaLo); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("interaction-lp", func(b *testing.B) {
		c := &consumer.Consumer{Loss: loss.Absolute{}}
		gLo, err := mechanism.Geometric(n, alphaLo)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := consumer.OptimalInteraction(c, gLo); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- EL5: Lemma 5 refinement and structure check ----------------------------

func BenchmarkLemma5(b *testing.B) {
	alpha := MustRat("1/2")
	c := &consumer.Consumer{Loss: loss.Absolute{}}
	b.Run("refined-optimum", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := consumer.OptimalMechanismRefined(c, 3, alpha); err != nil {
				b.Fatal(err)
			}
		}
	})
	g, err := mechanism.Geometric(8, alpha)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("structure-check", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := consumer.CheckLemma5(g, alpha); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- ELap: Laplace baseline --------------------------------------------------

func BenchmarkLaplace(b *testing.B) {
	b.Run("rounded-pmf", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := laplace.RoundedPMF(10, 20, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- LP duality certificate ----------------------------------------------

func BenchmarkStrongDualityCertificate(b *testing.B) {
	// Dualize and solve the Table 1 LP (the certificate pipeline).
	build := func() *lp.Problem {
		n := 3
		alpha := rational.New(1, 4)
		p := lp.NewProblem(lp.Minimize)
		d := p.NewVariable("d")
		xv := make([][]lp.Var, n+1)
		for i := 0; i <= n; i++ {
			xv[i] = make([]lp.Var, n+1)
			for rr := 0; rr <= n; rr++ {
				xv[i][rr] = p.NewVariable("x")
			}
		}
		p.SetObjective(lp.TInt(d, 1))
		for i := 0; i <= n; i++ {
			terms := []lp.Term{lp.TInt(d, 1)}
			for rr := 0; rr <= n; rr++ {
				dd := int64(i - rr)
				if dd < 0 {
					dd = -dd
				}
				if dd != 0 {
					terms = append(terms, lp.T(xv[i][rr], rational.Int(-dd)))
				}
			}
			p.AddConstraint(terms, lp.GE, rational.Zero())
		}
		negAlpha := rational.Neg(alpha)
		for i := 0; i < n; i++ {
			for rr := 0; rr <= n; rr++ {
				p.AddConstraint([]lp.Term{lp.TInt(xv[i][rr], 1), lp.T(xv[i+1][rr], negAlpha)}, lp.GE, rational.Zero())
				p.AddConstraint([]lp.Term{lp.TInt(xv[i+1][rr], 1), lp.T(xv[i][rr], negAlpha)}, lp.GE, rational.Zero())
			}
		}
		for i := 0; i <= n; i++ {
			terms := make([]lp.Term, 0, n+1)
			for rr := 0; rr <= n; rr++ {
				terms = append(terms, lp.TInt(xv[i][rr], 1))
			}
			p.AddConstraint(terms, lp.EQ, rational.One())
		}
		return p
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := build()
		primal, err := p.Solve()
		if err != nil {
			b.Fatal(err)
		}
		d, err := p.Dual()
		if err != nil {
			b.Fatal(err)
		}
		dual, err := d.Solve()
		if err != nil {
			b.Fatal(err)
		}
		if primal.Objective.Cmp(dual.Objective) != 0 {
			b.Fatal("strong duality failed")
		}
	}
}

// --- Mechanism serialization -------------------------------------------------

func BenchmarkMechanismJSON(b *testing.B) {
	g, err := mechanism.Geometric(32, MustRat("1/2"))
	if err != nil {
		b.Fatal(err)
	}
	data, err := json.Marshal(g)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var m mechanism.Mechanism
			if err := json.Unmarshal(data, &m); err != nil {
				b.Fatal(err)
			}
		}
	})
}
