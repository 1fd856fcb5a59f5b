package lp

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"minimaxdp/internal/baseline"
	"minimaxdp/internal/loss"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
)

// denseRaw runs the dense oracle's bare two-phase solve on p — no
// presolve, no warm start, no canonical refinement — and returns its
// vertex together with whether the final tableau certified it unique.
func denseRaw(t *testing.T, p *Problem) (*Solution, bool) {
	t.Helper()
	s := newStandardForm(p)
	status, tab := denseSolve(s)
	if status != Optimal {
		return &Solution{Status: status}, false
	}
	return tab.solution(s), tab.strictlyOptimal()
}

// lexOracle computes the canonical optimum of p by sequential dense
// solves, independent of lexRefine: split every free variable into
// its nonnegative parts (the standard-form structural columns, in Var
// order), solve once, fix the objective at its optimum, then minimize
// each column in turn and fix it at its minimum.
func lexOracle(t *testing.T, p *Problem) *Solution {
	t.Helper()
	q := NewProblem(p.sense)
	parts := make([][]Var, len(p.vars)) // per original var: +part, then −part if free
	for i, v := range p.vars {
		parts[i] = []Var{q.NewVariable(v.name + "+")}
		if v.free {
			parts[i] = append(parts[i], q.NewVariable(v.name+"-"))
		}
	}
	split := func(terms []Term) []Term {
		var out []Term
		for _, tm := range terms {
			ps := parts[tm.Var]
			out = append(out, T(ps[0], tm.Coeff))
			if len(ps) == 2 {
				out = append(out, T(ps[1], rational.Neg(tm.Coeff)))
			}
		}
		return out
	}
	var obj []Term
	for i, c := range p.objective {
		obj = append(obj, T(Var(i), c))
	}
	objective := split(obj)
	q.SetObjective(objective...)
	for _, con := range p.cons {
		q.AddConstraint(split(con.terms), con.op, con.rhs)
	}
	first, _ := denseRaw(t, q)
	if first.Status != Optimal {
		return first
	}
	q.AddConstraint(objective, EQ, first.Objective)
	q.sense = Minimize
	var last *Solution
	for j := range q.vars {
		q.SetObjective(TInt(Var(j), 1))
		sol, _ := denseRaw(t, q)
		if sol.Status != Optimal {
			t.Fatalf("oracle: fixing column %d: status %v", j, sol.Status)
		}
		q.AddConstraint([]Term{TInt(Var(j), 1)}, EQ, sol.Objective)
		last = sol
	}
	x := make([]*big.Rat, len(p.vars))
	for i, ps := range parts {
		x[i] = rational.Clone(last.X[ps[0]])
		if len(ps) == 2 {
			x[i].Sub(x[i], last.X[ps[1]])
		}
	}
	return p.optimalSolution(x)
}

// tailoredLP builds the §2.5 tailored-mechanism LP for loss l over the
// full side set, exactly as internal/consumer models it.
func tailoredLP(n int, alpha *big.Rat, l loss.Function) *Problem {
	side := make([]int, n+1)
	for i := range side {
		side[i] = i
	}
	return tailoredSideLP(n, alpha, l, side)
}

// tailoredSideLP is tailoredLP over the side set side: one loss row
// per i ∈ side.
func tailoredSideLP(n int, alpha *big.Rat, l loss.Function, side []int) *Problem {
	p := NewProblem(Minimize)
	d := p.NewVariable("d")
	xv := make([][]Var, n+1)
	for i := 0; i <= n; i++ {
		xv[i] = make([]Var, n+1)
		for r := 0; r <= n; r++ {
			xv[i][r] = p.NewVariable(fmt.Sprintf("x_%d_%d", i, r))
		}
	}
	p.SetObjective(TInt(d, 1))
	for _, i := range side {
		terms := []Term{TInt(d, 1)}
		for r := 0; r <= n; r++ {
			if c := l.Loss(i, r); c.Sign() != 0 {
				terms = append(terms, T(xv[i][r], rational.Neg(c)))
			}
		}
		p.AddConstraint(terms, GE, rational.Zero())
	}
	negAlpha := rational.Neg(alpha)
	for i := 0; i < n; i++ {
		for r := 0; r <= n; r++ {
			p.AddConstraint([]Term{TInt(xv[i][r], 1), T(xv[i+1][r], negAlpha)}, GE, rational.Zero())
			p.AddConstraint([]Term{TInt(xv[i+1][r], 1), T(xv[i][r], negAlpha)}, GE, rational.Zero())
		}
	}
	for i := 0; i <= n; i++ {
		terms := make([]Term, 0, n+1)
		for r := 0; r <= n; r++ {
			terms = append(terms, TInt(xv[i][r], 1))
		}
		p.AddConstraint(terms, EQ, rational.One())
	}
	return p
}

// interactionLP builds the §2.4.3 optimal-interaction LP of a minimax
// consumer with loss l over the full side set against the deployed
// mechanism, exactly as internal/consumer models it.
func interactionLP(deployed *mechanism.Mechanism, l loss.Function) *Problem {
	n := deployed.N()
	p := NewProblem(Minimize)
	d := p.NewVariable("d")
	tv := make([][]Var, n+1)
	for r := 0; r <= n; r++ {
		tv[r] = make([]Var, n+1)
		for rp := 0; rp <= n; rp++ {
			tv[r][rp] = p.NewVariable(fmt.Sprintf("T_%d_%d", r, rp))
		}
	}
	p.SetObjective(TInt(d, 1))
	for i := 0; i <= n; i++ {
		terms := []Term{TInt(d, 1)}
		for r := 0; r <= n; r++ {
			for rp := 0; rp <= n; rp++ {
				if c := rational.Mul(deployed.Prob(i, r), l.Loss(i, rp)); c.Sign() != 0 {
					terms = append(terms, T(tv[r][rp], rational.Neg(c)))
				}
			}
		}
		p.AddConstraint(terms, GE, rational.Zero())
	}
	for r := 0; r <= n; r++ {
		terms := make([]Term, 0, n+1)
		for rp := 0; rp <= n; rp++ {
			terms = append(terms, TInt(tv[r][rp], 1))
		}
		p.AddConstraint(terms, EQ, rational.One())
	}
	return p
}

// fuzzCorpus returns a fuzz target's seed inputs and committed corpus
// entries (testdata/fuzz/<target>), keyed by the names the fuzz test
// runs them under.
func fuzzCorpus(t *testing.T, target string, seeds [][]byte) (names []string, inputs [][]byte) {
	t.Helper()
	for k, seed := range seeds {
		names = append(names, fmt.Sprintf("seed#%d", k))
		inputs = append(inputs, seed)
	}
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: unexpected corpus format", f)
		}
		b, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		names = append(names, filepath.Base(f))
		inputs = append(inputs, []byte(b))
	}
	return names, inputs
}

// TestLexCanonicalMatchesOracle pins the canonical-optimum contract:
// on tied LPs — the tied entries of the warm-start fuzz corpus, the
// n=6 zero-one and deadband tailored LPs, and an interaction LP
// against the truncated Laplace baseline — the default solve and
// StrategyExact both return exactly the lexicographically smallest
// optimal point that the sequential dense oracle computes.
func TestLexCanonicalMatchesOracle(t *testing.T) {
	laplace, err := baseline.TruncatedLaplace(4, rational.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	type tcase struct {
		name string
		p    *Problem
		fuzz bool // corpus LP: the float solve may legitimately fail
	}
	cases := []tcase{
		{"tailored-zero-one-n6", tailoredLP(6, rational.New(1, 2), loss.ZeroOne{}), false},
		{"tailored-deadband1-n6", tailoredLP(6, rational.New(1, 2), loss.Deadband{Width: 1}), false},
		{"interaction-zero-one-vs-laplace-n4", interactionLP(laplace, loss.ZeroOne{}), false},
	}
	ties := 0
	names, inputs := fuzzCorpus(t, "FuzzWarmStartMatchesExact", warmStartSeeds)
	for k, data := range inputs {
		p := fuzzProblem(data)
		if p == nil {
			continue
		}
		if sol, unique := denseRaw(t, p); sol.Status == Optimal && !unique {
			ties++
			cases = append(cases, tcase{"corpus-" + names[k], p, true})
		}
	}
	if ties < 3 {
		t.Fatalf("warm-start fuzz corpus holds %d tied optima, want ≥ 3", ties)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if sol, unique := denseRaw(t, tc.p); sol.Status != Optimal || unique {
				t.Fatal("LP has no tied optimum; the case no longer exercises a tie")
			}
			want := lexOracle(t, tc.p)
			var stats SolveStats
			warm, err := tc.p.SolveWithOpts(context.Background(), SolveOpts{Stats: &stats})
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, want, warm)
			if !stats.TiedOptima || (stats.Fallback && !tc.fuzz) {
				t.Errorf("tie not lex-refined on the warm path: %+v", stats)
			}
			exact, err := tc.p.SolveWithOpts(context.Background(), SolveOpts{Strategy: StrategyExact})
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, want, exact)
			if err := warm.Verify(tc.p); err != nil {
				t.Errorf("canonical optimum fails verification: %v", err)
			}
		})
	}
}

// TestColdPathMatchesOracle runs StrategyExact — the cold two-phase
// revised simplex — over infeasible, unbounded, redundant-equality-row
// and tied LPs and the random shapes of TestStrongDualityRandom, and
// asserts the dense oracle's status and bytes, with every pivot
// counted as an exact pivot and none as a warm-path revised pivot.
func TestColdPathMatchesOracle(t *testing.T) {
	type tcase struct {
		name string
		p    *Problem
		tied bool
	}
	infeasible := NewProblem(Minimize)
	x := infeasible.NewVariable("x")
	infeasible.SetObjective(TInt(x, 1))
	infeasible.AddConstraint([]Term{TInt(x, 1)}, LE, rational.Int(1))
	infeasible.AddConstraint([]Term{TInt(x, 1)}, GE, rational.Int(2))

	unbounded := NewProblem(Maximize)
	x = unbounded.NewVariable("x")
	y := unbounded.NewVariable("y")
	unbounded.SetObjective(TInt(x, 1), TInt(y, 1))
	unbounded.AddConstraint([]Term{TInt(x, 1), TInt(y, -1)}, LE, rational.Int(1))

	// The second row is twice the first: after phase 1 one artificial
	// stays basic at zero on a redundant row.
	redundant := NewProblem(Minimize)
	x = redundant.NewVariable("x")
	y = redundant.NewVariable("y")
	z := redundant.NewVariable("z")
	redundant.SetObjective(TInt(x, -1), TInt(z, 1))
	redundant.AddConstraint([]Term{TInt(x, 1), TInt(y, 1), TInt(z, 1)}, EQ, rational.Int(3))
	redundant.AddConstraint([]Term{TInt(x, 2), TInt(y, 2), TInt(z, 2)}, EQ, rational.Int(6))
	redundant.AddConstraint([]Term{TInt(x, 1), TInt(z, -1)}, LE, rational.Int(1))

	// The same redundant rows under a cost that ties along an edge.
	redundantTie := NewProblem(Minimize)
	x = redundantTie.NewVariable("x")
	y = redundantTie.NewVariable("y")
	redundantTie.SetObjective(TInt(x, 1), TInt(y, 1))
	redundantTie.AddConstraint([]Term{TInt(x, 1), TInt(y, 1)}, EQ, rational.Int(2))
	redundantTie.AddConstraint([]Term{TInt(x, 3), TInt(y, 3)}, EQ, rational.Int(6))

	// x ≥ 2, x ≤ 2 and 4x ≥ 5 twice: phase 1 ends with artificials
	// basic at zero on rows that are not redundant, and phase 2 goes
	// wrong (x = 5/4) unless they are driven out first.
	driveOut := NewProblem(Minimize)
	x = driveOut.NewVariable("x")
	driveOut.SetObjective(TInt(x, 5))
	driveOut.AddConstraint([]Term{TInt(x, 1)}, GE, rational.Int(2))
	driveOut.AddConstraint([]Term{TInt(x, 1)}, LE, rational.Int(2))
	driveOut.AddConstraint([]Term{TInt(x, 4)}, GE, rational.Int(5))
	driveOut.AddConstraint([]Term{TInt(x, 4)}, GE, rational.Int(5))

	cases := []tcase{
		{"infeasible", infeasible, false},
		{"artificial-drive-out", driveOut, false},
		{"unbounded", unbounded, false},
		{"redundant-equality-row", redundant, false},
		{"redundant-equality-row-tied", redundantTie, true},
		{"tied-edge", smallLP(), true},
		{"tailored-zero-one-n4", tailoredLP(4, rational.New(1, 2), loss.ZeroOne{}), true},
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		p := strongDualityLP(rng)
		// Keep the shapes whose start basis holds an artificial, so the
		// cold solve must pivot (a positive-cost minimization over a
		// slack basis is optimal at once).
		for _, sl := range newStandardForm(p).slack {
			if sl < 0 {
				cases = append(cases, tcase{fmt.Sprintf("strong-duality-%d", trial), p, false})
				break
			}
		}
	}
	statuses := map[Status]int{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := lexOracle(t, tc.p)
			statuses[want.Status]++
			var stats SolveStats
			got, err := tc.p.SolveWithOpts(context.Background(), SolveOpts{Strategy: StrategyExact, Stats: &stats})
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, want, got)
			if stats.ExactPivots == 0 || stats.RevisedPivots != 0 {
				t.Errorf("ExactPivots = %d, RevisedPivots = %d; want > 0 and 0", stats.ExactPivots, stats.RevisedPivots)
			}
			if tc.tied && !stats.TiedOptima {
				t.Error("tied LP not lex-refined")
			}
		})
	}
	if statuses[Optimal] < 10 || statuses[Infeasible] == 0 || statuses[Unbounded] == 0 {
		t.Errorf("oracle statuses %v: want ≥ 10 optimal and every verdict", statuses)
	}
}
