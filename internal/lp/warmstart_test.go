package lp

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"minimaxdp/internal/loss"
	"minimaxdp/internal/rational"
)

// solveBoth runs p under both strategies and returns (exact, warm).
func solveBoth(t *testing.T, p *Problem, warmStats *SolveStats) (*Solution, *Solution) {
	t.Helper()
	exact, err := p.SolveWithOpts(context.Background(), SolveOpts{Strategy: StrategyExact})
	if err != nil {
		t.Fatalf("exact solve: %v", err)
	}
	warm, err := p.SolveWithOpts(context.Background(), SolveOpts{Stats: warmStats})
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	return exact, warm
}

// assertIdentical asserts byte-identical Status/Objective/X between
// the two solutions (Rat.Cmp == 0 everywhere).
func assertIdentical(t *testing.T, exact, warm *Solution) {
	t.Helper()
	if exact.Status != warm.Status {
		t.Fatalf("status: exact %v, warm %v", exact.Status, warm.Status)
	}
	if exact.Status != Optimal {
		return
	}
	if exact.Objective.Cmp(warm.Objective) != 0 {
		t.Fatalf("objective: exact %s, warm %s",
			exact.Objective.RatString(), warm.Objective.RatString())
	}
	if len(exact.X) != len(warm.X) {
		t.Fatalf("len(X): exact %d, warm %d", len(exact.X), len(warm.X))
	}
	for i := range exact.X {
		if exact.X[i].Cmp(warm.X[i]) != 0 {
			t.Fatalf("X[%d]: exact %s, warm %s",
				i, exact.X[i].RatString(), warm.X[i].RatString())
		}
	}
}

// tailoredTestLP builds the §2.5 tailored-mechanism LP for the
// absolute-loss consumer at size n.
func tailoredTestLP(n int, alpha *big.Rat) *Problem {
	return tailoredLP(n, alpha, loss.Absolute{})
}

// TestWarmStartMatchesExactOnSuite runs every shape the exact solver
// is separately tested on — plus the paper's tailored LPs — through
// both strategies and demands byte-identical results.
func TestWarmStartMatchesExactOnSuite(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Problem
	}{
		{"classic-max", buildClassic},
		{"small", smallLP},
		{"ge-min", func() *Problem {
			p := NewProblem(Minimize)
			x := p.NewVariable("x")
			y := p.NewVariable("y")
			p.SetObjective(TInt(x, 2), TInt(y, 3))
			p.AddConstraint([]Term{TInt(x, 1), TInt(y, 1)}, GE, rational.Int(4))
			p.AddConstraint([]Term{TInt(x, 1), TInt(y, 2)}, GE, rational.Int(6))
			return p
		}},
		{"equality", func() *Problem {
			p := NewProblem(Maximize)
			x := p.NewVariable("x")
			y := p.NewVariable("y")
			p.SetObjective(TInt(x, 1), TInt(y, 2))
			p.AddConstraint([]Term{TInt(x, 1), TInt(y, 1)}, EQ, rational.Int(5))
			p.AddConstraint([]Term{TInt(x, 1)}, LE, rational.Int(3))
			return p
		}},
		{"infeasible", func() *Problem {
			p := NewProblem(Minimize)
			x := p.NewVariable("x")
			p.SetObjective(TInt(x, 1))
			p.AddConstraint([]Term{TInt(x, 1)}, LE, rational.Int(1))
			p.AddConstraint([]Term{TInt(x, 1)}, GE, rational.Int(2))
			return p
		}},
		{"unbounded", func() *Problem {
			p := NewProblem(Maximize)
			x := p.NewVariable("x")
			y := p.NewVariable("y")
			p.SetObjective(TInt(x, 1), TInt(y, 1))
			p.AddConstraint([]Term{TInt(x, 1), TInt(y, -1)}, LE, rational.Int(1))
			return p
		}},
		{"free-var", func() *Problem {
			p := NewProblem(Minimize)
			x := p.FreeVariable("x")
			p.SetObjective(TInt(x, 1))
			p.AddConstraint([]Term{TInt(x, 1)}, GE, rational.Int(-3))
			return p
		}},
		{"degenerate-beale", func() *Problem {
			p := NewProblem(Minimize)
			x1 := p.NewVariable("x1")
			x2 := p.NewVariable("x2")
			x3 := p.NewVariable("x3")
			x4 := p.NewVariable("x4")
			p.SetObjective(T(x1, r("-3/4")), TInt(x2, 150), T(x3, r("-1/50")), TInt(x4, 6))
			p.AddConstraint([]Term{T(x1, r("1/4")), TInt(x2, -60), T(x3, r("-1/25")), TInt(x4, 9)}, LE, rational.Zero())
			p.AddConstraint([]Term{T(x1, r("1/2")), TInt(x2, -90), T(x3, r("-1/50")), TInt(x4, 3)}, LE, rational.Zero())
			p.AddConstraint([]Term{TInt(x3, 1)}, LE, rational.One())
			return p
		}},
		{"tailored-n3", func() *Problem { return tailoredTestLP(3, rational.New(1, 4)) }},
		{"tailored-n4", func() *Problem { return tailoredTestLP(4, rational.New(1, 2)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stats SolveStats
			exact, warm := solveBoth(t, tc.build(), &stats)
			assertIdentical(t, exact, warm)
			t.Logf("stats: %+v", stats)
		})
	}
}

// TestWarmStartHitOnTailoredLPs pins the acceptance criterion that
// the Table 1 LP (n=3, α=1/4) and the serving-size LP (n=8, α=1/2)
// take the crossover hit path — certified from the float basis with
// zero exact pivots — not the resume or fallback paths.
func TestWarmStartHitOnTailoredLPs(t *testing.T) {
	for _, tc := range []struct {
		n     int
		alpha *big.Rat
	}{
		{3, rational.New(1, 4)},
		{8, rational.New(1, 2)},
	} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			var stats SolveStats
			sol, err := tailoredTestLP(tc.n, tc.alpha).SolveWithOpts(
				context.Background(), SolveOpts{Stats: &stats})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != Optimal {
				t.Fatalf("status = %v", sol.Status)
			}
			if !stats.WarmStartHit || stats.CrossoverResumed || stats.Fallback {
				t.Errorf("want pure crossover hit, got %+v", stats)
			}
			if stats.ExactPivots != 0 {
				t.Errorf("hit path made %d exact pivots, want 0", stats.ExactPivots)
			}
			if stats.FloatPivots == 0 {
				t.Error("float solver reported zero pivots")
			}
		})
	}
}

// TestExactSolveCanceled pins the cold path's cancellation
// checkpoint: a StrategyExact solve under a canceled context returns
// ctx.Err() and no solution, both when phase 1 runs (artificials) and
// when the slack basis starts phase 2 directly.
func TestExactSolveCanceled(t *testing.T) {
	needsPhase1 := NewProblem(Minimize)
	x := needsPhase1.NewVariable("x")
	needsPhase1.SetObjective(TInt(x, 1))
	needsPhase1.AddConstraint([]Term{TInt(x, 1)}, GE, rational.Int(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []*Problem{smallLP(), needsPhase1} {
		sol, err := p.SolveWithOpts(ctx, SolveOpts{Strategy: StrategyExact})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if sol != nil {
			t.Errorf("canceled exact solve returned a solution: %+v", sol)
		}
	}
	if got := NoStatus.String(); got != "none" {
		t.Errorf("NoStatus.String() = %q, want \"none\"", got)
	}
}

// TestSolveStatsReset asserts a reused Stats struct is cleared at the
// start of each solve rather than accumulating.
func TestSolveStatsReset(t *testing.T) {
	var stats SolveStats
	p := tailoredTestLP(3, rational.New(1, 4))
	if _, err := p.SolveWithOpts(context.Background(), SolveOpts{Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	first := stats
	if _, err := smallLP().SolveWithOpts(context.Background(), SolveOpts{Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if stats.FloatPivots >= first.FloatPivots {
		t.Errorf("stats not reset between solves: first %+v, second %+v", first, stats)
	}
}

// FuzzWarmStartMatchesExact generates random LPs — feasible,
// infeasible, and unbounded, with mixed operators, negative RHS, and
// free variables — and asserts that both the warm-started solve and
// StrategyExact match the dense oracle: the lexOracle bytes for an
// Optimal LP, the oracle's status otherwise.
func FuzzWarmStartMatchesExact(f *testing.F) {
	for _, seed := range warmStartSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProblem(data)
		if p == nil {
			t.Skip()
		}
		assertMatchesOracle(t, p)
	})
}

// assertMatchesOracle solves p with the default options and with
// StrategyExact and asserts both equal lexOracle(p) in status and, for
// an Optimal LP, in every byte, and that an Optimal result verifies
// against p.
func assertMatchesOracle(t *testing.T, p *Problem) {
	t.Helper()
	want := lexOracle(t, p)
	for _, strategy := range []Strategy{StrategyWarmStart, StrategyExact} {
		var stats SolveStats
		got, err := p.SolveWithOpts(context.Background(), SolveOpts{Strategy: strategy, Stats: &stats})
		if err != nil {
			t.Fatalf("strategy %d: %v", strategy, err)
		}
		if got.Status != want.Status {
			t.Fatalf("strategy %d: status %v, oracle %v (stats %+v)", strategy, got.Status, want.Status, stats)
		}
		assertIdentical(t, want, got)
		if got.Status == Optimal {
			if err := got.Verify(p); err != nil {
				t.Fatalf("strategy %d: solution fails Verify: %v", strategy, err)
			}
		}
	}
}

// warmStartSeeds are FuzzWarmStartMatchesExact's seed inputs; the
// committed corpus under testdata/fuzz adds tied-optimum entries.
var warmStartSeeds = [][]byte{
	{2, 2, 7, 3, 1, 9, 4, 2, 8, 6},
	{3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	{1, 1, 255, 128, 64, 32},
	{4, 5, 13, 200, 250, 3, 17, 90, 41, 6, 66, 12, 250, 9},
}

// fuzzProblem deterministically decodes an LP from fuzz bytes:
// 1–4 variables (occasionally free), 1–5 constraints with mixed
// LE/GE/EQ operators, small signed coefficients and RHS.
func fuzzProblem(data []byte) *Problem {
	if len(data) < 2 {
		return nil
	}
	nv := 1 + int(data[0]%4)
	nc := 1 + int(data[1]%5)
	idx := 2
	next := func() byte {
		if idx < len(data) {
			b := data[idx]
			idx++
			return b
		}
		return 0
	}
	p := NewProblem(Minimize)
	vars := make([]Var, nv)
	for i := range vars {
		if next()%5 == 0 {
			vars[i] = p.FreeVariable("f")
		} else {
			vars[i] = p.NewVariable("v")
		}
		p.SetObjectiveCoeff(vars[i], rational.Int(int64(next()%13)-4))
	}
	for c := 0; c < nc; c++ {
		terms := make([]Term, nv)
		for i := range vars {
			terms[i] = TInt(vars[i], int64(next()%9)-4)
		}
		op := Op(next() % 3)
		rhs := rational.Int(int64(next()%15) - 5)
		p.AddConstraint(terms, op, rhs)
	}
	return p
}
