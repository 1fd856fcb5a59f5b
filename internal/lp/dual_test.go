package lp

import (
	"math/rand"
	"testing"

	"minimaxdp/internal/rational"
)

// min 2x+3y s.t. x+y ≥ 10, x ≥ 2, y ≥ 3 — optimum 23.
func buildMinGE() *Problem {
	p := NewProblem(Minimize)
	x := p.NewVariable("x")
	y := p.NewVariable("y")
	p.SetObjective(TInt(x, 2), TInt(y, 3))
	p.AddConstraint([]Term{TInt(x, 1), TInt(y, 1)}, GE, r("10"))
	p.AddConstraint([]Term{TInt(x, 1)}, GE, r("2"))
	p.AddConstraint([]Term{TInt(y, 1)}, GE, r("3"))
	return p
}

func TestStrongDualitySimple(t *testing.T) {
	p := buildMinGE()
	primal, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Dual()
	if err != nil {
		t.Fatal(err)
	}
	dual, err := d.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if dual.Status != Optimal {
		t.Fatalf("dual status %v", dual.Status)
	}
	if primal.Objective.Cmp(dual.Objective) != 0 {
		t.Errorf("strong duality fails: primal %s, dual %s",
			primal.Objective.RatString(), dual.Objective.RatString())
	}
	prices, err := p.DualPrices(dual)
	if err != nil {
		t.Fatal(err)
	}
	if len(prices) != 3 {
		t.Fatalf("got %d prices", len(prices))
	}
	// GE constraints in a min problem have non-negative prices.
	for i, y := range prices {
		if y.Sign() < 0 {
			t.Errorf("price %d = %s negative for a GE row", i, y.RatString())
		}
	}
}

func TestStrongDualityWithMixedOps(t *testing.T) {
	// min x+2y s.t. x+y = 4, x ≤ 3, y ≥ 1 → optimum at (3,1): 5.
	p := NewProblem(Minimize)
	x := p.NewVariable("x")
	y := p.NewVariable("y")
	p.SetObjective(TInt(x, 1), TInt(y, 2))
	p.AddConstraint([]Term{TInt(x, 1), TInt(y, 1)}, EQ, r("4"))
	p.AddConstraint([]Term{TInt(x, 1)}, LE, r("3"))
	p.AddConstraint([]Term{TInt(y, 1)}, GE, r("1"))
	primal, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if primal.Objective.RatString() != "5" {
		t.Fatalf("primal optimum %s, want 5", primal.Objective.RatString())
	}
	d, err := p.Dual()
	if err != nil {
		t.Fatal(err)
	}
	dual, err := d.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if primal.Objective.Cmp(dual.Objective) != 0 {
		t.Errorf("strong duality fails: primal %s, dual %s",
			primal.Objective.RatString(), dual.Objective.RatString())
	}
	prices, err := p.DualPrices(dual)
	if err != nil {
		t.Fatal(err)
	}
	// LE row price must be ≤ 0 after the un-substitution.
	if prices[1].Sign() > 0 {
		t.Errorf("LE price = %s, want ≤ 0", prices[1].RatString())
	}
}

func TestDualValidation(t *testing.T) {
	mx := NewProblem(Maximize)
	v := mx.NewVariable("x")
	mx.SetObjective(TInt(v, 1))
	mx.AddConstraint([]Term{TInt(v, 1)}, LE, r("1"))
	if _, err := mx.Dual(); err == nil {
		t.Error("maximization dualized without error")
	}
	empty := NewProblem(Minimize)
	empty.NewVariable("x")
	if _, err := empty.Dual(); err == nil {
		t.Error("no-constraint problem dualized")
	}
}

func TestDualPricesValidation(t *testing.T) {
	p := buildMinGE()
	if _, err := p.DualPrices(&Solution{Status: Infeasible}); err == nil {
		t.Error("non-optimal dual accepted")
	}
	if _, err := p.DualPrices(&Solution{Status: Optimal, X: rational.Vector(1)}); err == nil {
		t.Error("wrong-length dual accepted")
	}
}

// strongDualityLP draws a random minimization LP with positive costs,
// nonnegative coefficients and mostly GE rows: feasible more often
// than not, and bounded whenever feasible.
func strongDualityLP(rng *rand.Rand) *Problem {
	nv := 2 + rng.Intn(3)
	nc := 2 + rng.Intn(4)
	p := NewProblem(Minimize)
	vars := make([]Var, nv)
	for i := range vars {
		vars[i] = p.NewVariable("v")
		p.SetObjectiveCoeff(vars[i], rational.Int(int64(rng.Intn(8)+1)))
	}
	for c := 0; c < nc; c++ {
		terms := make([]Term, 0, nv)
		for i := range vars {
			if coef := rng.Intn(5); coef > 0 {
				terms = append(terms, TInt(vars[i], int64(coef)))
			}
		}
		if len(terms) == 0 {
			terms = append(terms, TInt(vars[0], 1))
		}
		op := GE
		if rng.Intn(3) == 0 {
			op = LE
		}
		p.AddConstraint(terms, op, rational.Int(int64(rng.Intn(12))))
	}
	return p
}

// Strong duality holds exactly on random feasible bounded LPs.
func TestStrongDualityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		p := strongDualityLP(rng)
		primal, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if primal.Status != Optimal {
			continue
		}
		d, err := p.Dual()
		if err != nil {
			t.Fatal(err)
		}
		dual, err := d.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if dual.Status != Optimal {
			t.Fatalf("trial %d: primal optimal but dual %v", trial, dual.Status)
		}
		if primal.Objective.Cmp(dual.Objective) != 0 {
			t.Fatalf("trial %d: primal %s != dual %s", trial,
				primal.Objective.RatString(), dual.Objective.RatString())
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d bounded instances checked", checked)
	}
}

// The paper's tailored-mechanism LP certified by strong duality: the
// dual optimum equals the primal optimum as exact rationals.
func TestStrongDualityOnMechanismLP(t *testing.T) {
	// Build the Section 2.5 LP for n=3, α=1/4, absolute loss (the
	// Table 1 instance) directly.
	n := 3
	alpha := r("1/4")
	p := NewProblem(Minimize)
	d := p.NewVariable("d")
	xv := make([][]Var, n+1)
	for i := 0; i <= n; i++ {
		xv[i] = make([]Var, n+1)
		for rr := 0; rr <= n; rr++ {
			xv[i][rr] = p.NewVariable("x")
		}
	}
	p.SetObjective(TInt(d, 1))
	for i := 0; i <= n; i++ {
		terms := []Term{TInt(d, 1)}
		for rr := 0; rr <= n; rr++ {
			dd := int64(i - rr)
			if dd < 0 {
				dd = -dd
			}
			if dd != 0 {
				terms = append(terms, T(xv[i][rr], rational.Int(-dd)))
			}
		}
		p.AddConstraint(terms, GE, rational.Zero())
	}
	negAlpha := rational.Neg(alpha)
	for i := 0; i < n; i++ {
		for rr := 0; rr <= n; rr++ {
			p.AddConstraint([]Term{TInt(xv[i][rr], 1), T(xv[i+1][rr], negAlpha)}, GE, rational.Zero())
			p.AddConstraint([]Term{TInt(xv[i+1][rr], 1), T(xv[i][rr], negAlpha)}, GE, rational.Zero())
		}
	}
	for i := 0; i <= n; i++ {
		terms := make([]Term, 0, n+1)
		for rr := 0; rr <= n; rr++ {
			terms = append(terms, TInt(xv[i][rr], 1))
		}
		p.AddConstraint(terms, EQ, rational.One())
	}
	primal, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if primal.Objective.RatString() != "168/415" {
		t.Fatalf("primal optimum %s, want 168/415", primal.Objective.RatString())
	}
	dp, err := p.Dual()
	if err != nil {
		t.Fatal(err)
	}
	dual, err := dp.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if dual.Status != Optimal || primal.Objective.Cmp(dual.Objective) != 0 {
		t.Fatalf("Table 1 LP not certified: primal %s, dual %v %s",
			primal.Objective.RatString(), dual.Status, dual.Objective)
	}
}
