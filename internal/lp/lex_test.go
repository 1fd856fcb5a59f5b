package lp

import (
	"context"
	"fmt"
	"math/big"
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

// denseRaw runs the bare two-phase tableau solve on p — no presolve,
// no warm start, no canonical refinement — and returns its vertex
// together with whether the final tableau certified it unique.
func denseRaw(t *testing.T, p *Problem) (*Solution, bool) {
	t.Helper()
	s := newStandardForm(p)
	tab, status, err := s.phase1(context.Background(), &SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if status == Infeasible {
		return &Solution{Status: Infeasible}, false
	}
	if status, err = s.phase2(context.Background(), tab); err != nil {
		t.Fatal(err)
	}
	if status == Unbounded {
		return &Solution{Status: Unbounded}, false
	}
	return s.solution(s.extract(tab)), tab.strictlyOptimal()
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
	for i := 0; i <= n; i++ {
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

// warmStartCorpus returns the FuzzWarmStartMatchesExact seed inputs
// and committed corpus entries, keyed by the names the fuzz test runs
// them under.
func warmStartCorpus(t *testing.T) (names []string, inputs [][]byte) {
	t.Helper()
	for k, seed := range warmStartSeeds {
		names = append(names, fmt.Sprintf("seed#%d", k))
		inputs = append(inputs, seed)
	}
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzWarmStartMatchesExact", "*"))
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
	names, inputs := warmStartCorpus(t)
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
