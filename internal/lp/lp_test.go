package lp

import (
	"math/big"
	"testing"

	"minimaxdp/internal/rational"
)

func r(s string) *big.Rat { return rational.MustParse(s) }

// max 3x+5y s.t. x ≤ 4, 2y ≤ 12, 3x+2y ≤ 18  (classic; optimum 36 at (2,6)).
func buildClassic() *Problem {
	p := NewProblem(Maximize)
	x := p.NewVariable("x")
	y := p.NewVariable("y")
	p.SetObjective(TInt(x, 3), TInt(y, 5))
	p.AddConstraint([]Term{TInt(x, 1)}, LE, r("4"))
	p.AddConstraint([]Term{TInt(y, 2)}, LE, r("12"))
	p.AddConstraint([]Term{TInt(x, 3), TInt(y, 2)}, LE, r("18"))
	return p
}

func TestSolveClassicMax(t *testing.T) {
	sol, err := buildClassic().Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Objective.RatString() != "36" {
		t.Errorf("objective = %s, want 36", sol.Objective.RatString())
	}
	x, y := sol.X[0], sol.X[1]
	if x.RatString() != "2" || y.RatString() != "6" {
		t.Errorf("x=%s y=%s, want 2, 6", x.RatString(), y.RatString())
	}
}

func TestSolveMinWithGE(t *testing.T) {
	// min 2x+3y s.t. x+y ≥ 10, x ≥ 2, y ≥ 3. Optimum: x=7,y=3 → 23.
	p := NewProblem(Minimize)
	x := p.NewVariable("x")
	y := p.NewVariable("y")
	p.SetObjective(TInt(x, 2), TInt(y, 3))
	p.AddConstraint([]Term{TInt(x, 1), TInt(y, 1)}, GE, r("10"))
	p.AddConstraint([]Term{TInt(x, 1)}, GE, r("2"))
	p.AddConstraint([]Term{TInt(y, 1)}, GE, r("3"))
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Objective.RatString() != "23" {
		t.Errorf("objective = %s, want 23", sol.Objective.RatString())
	}
}

func TestSolveEquality(t *testing.T) {
	// min x+y s.t. x+2y = 4, x−y = 1. Unique point (2,1) → 3.
	p := NewProblem(Minimize)
	x := p.NewVariable("x")
	y := p.NewVariable("y")
	p.SetObjective(TInt(x, 1), TInt(y, 1))
	p.AddConstraint([]Term{TInt(x, 1), TInt(y, 2)}, EQ, r("4"))
	p.AddConstraint([]Term{TInt(x, 1), TInt(y, -1)}, EQ, r("1"))
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.X[0].RatString() != "2" || sol.X[1].RatString() != "1" {
		t.Errorf("x=%s y=%s", sol.X[0].RatString(), sol.X[1].RatString())
	}
	if sol.Objective.RatString() != "3" {
		t.Errorf("objective = %s", sol.Objective.RatString())
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.NewVariable("x")
	p.SetObjective(TInt(x, 1))
	p.AddConstraint([]Term{TInt(x, 1)}, LE, r("1"))
	p.AddConstraint([]Term{TInt(x, 1)}, GE, r("2"))
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.NewVariable("x")
	p.SetObjective(TInt(x, 1))
	p.AddConstraint([]Term{TInt(x, 1)}, GE, r("0"))
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestFreeVariable(t *testing.T) {
	// min d s.t. d ≥ x−3, d ≥ 3−x, x = 1 → d = 2 (|x−3| epigraph).
	p := NewProblem(Minimize)
	d := p.FreeVariable("d")
	x := p.NewVariable("x")
	p.SetObjective(TInt(d, 1))
	p.AddConstraint([]Term{TInt(d, 1), TInt(x, -1)}, GE, r("-3"))
	p.AddConstraint([]Term{TInt(d, 1), TInt(x, 1)}, GE, r("3"))
	p.AddConstraint([]Term{TInt(x, 1)}, EQ, r("1"))
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Objective.RatString() != "2" {
		t.Errorf("objective = %s, want 2", sol.Objective.RatString())
	}
}

func TestFreeVariableCanGoNegative(t *testing.T) {
	// min y s.t. y ≥ −5 with y free → y = −5.
	p := NewProblem(Minimize)
	y := p.FreeVariable("y")
	p.SetObjective(TInt(y, 1))
	p.AddConstraint([]Term{TInt(y, 1)}, GE, r("-5"))
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.X[0].RatString() != "-5" {
		t.Errorf("y = %s, want -5", sol.X[0].RatString())
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// −x ≤ −4  ⇔  x ≥ 4; min x → 4.
	p := NewProblem(Minimize)
	x := p.NewVariable("x")
	p.SetObjective(TInt(x, 1))
	p.AddConstraint([]Term{TInt(x, -1)}, LE, r("-4"))
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.X[0].RatString() != "4" {
		t.Errorf("status=%v x=%v", sol.Status, sol.X)
	}
}

func TestExactRationalAnswer(t *testing.T) {
	// max x s.t. 3x ≤ 1 → x = 1/3 exactly.
	p := NewProblem(Maximize)
	x := p.NewVariable("x")
	p.SetObjective(TInt(x, 1))
	p.AddConstraint([]Term{TInt(x, 3)}, LE, r("1"))
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.X[0].RatString() != "1/3" {
		t.Errorf("x = %s, want exactly 1/3", sol.X[0].RatString())
	}
}

func TestDegenerateNoCycle(t *testing.T) {
	// A classic cycling-prone example (Beale). Bland's rule must
	// terminate with optimum 1/20 × ... ; we just require termination
	// and a valid optimal status.
	p := NewProblem(Minimize)
	x1 := p.NewVariable("x1")
	x2 := p.NewVariable("x2")
	x3 := p.NewVariable("x3")
	x4 := p.NewVariable("x4")
	p.SetObjective(T(x1, r("-3/4")), TInt(x2, 150), T(x3, r("-1/50")), TInt(x4, 6))
	p.AddConstraint([]Term{T(x1, r("1/4")), TInt(x2, -60), T(x3, r("-1/25")), TInt(x4, 9)}, LE, r("0"))
	p.AddConstraint([]Term{T(x1, r("1/2")), TInt(x2, -90), T(x3, r("-1/50")), TInt(x4, 3)}, LE, r("0"))
	p.AddConstraint([]Term{TInt(x3, 1)}, LE, r("1"))
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Objective.RatString() != "-1/20" {
		t.Errorf("objective = %s, want -1/20", sol.Objective.RatString())
	}
}

func TestSolutionValueAndDescribeVar(t *testing.T) {
	p := buildClassic()
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value(Var(0)).RatString() != "2" {
		t.Error("Value wrong")
	}
	if p.DescribeVar(Var(0)) != "x" || p.DescribeVar(Var(99)) != "var#99" {
		t.Error("DescribeVar wrong")
	}
	if p.NumVariables() != 2 || p.NumConstraints() != 3 {
		t.Error("counters wrong")
	}
}

func TestNoVariablesErrors(t *testing.T) {
	if _, err := NewProblem(Minimize).Solve(); err == nil {
		t.Error("expected error for empty problem")
	}
}

func TestAccumulatedTerms(t *testing.T) {
	// Repeated terms on the same variable must accumulate:
	// x + x ≤ 4 means 2x ≤ 4.
	p := NewProblem(Maximize)
	x := p.NewVariable("x")
	p.SetObjective(TInt(x, 1))
	p.AddConstraint([]Term{TInt(x, 1), TInt(x, 1)}, LE, r("4"))
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.X[0].RatString() != "2" {
		t.Errorf("x = %s, want 2", sol.X[0].RatString())
	}
}

func TestOpString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" || Op(99).String() != "?" {
		t.Error("Op.String wrong")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || Status(9).String() != "unknown" {
		t.Error("Status.String wrong")
	}
}
