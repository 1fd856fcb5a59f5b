package lp

import (
	"context"
	"fmt"
	"testing"

	"minimaxdp/internal/rational"
)

// presolveCase is one hand-built LP exercising a specific reduction.
type presolveCase struct {
	name  string
	build func() *Problem
	// minimum reductions the presolver must report
	minRows, minCols int
	wantStatus       Status
	wantTied         bool // tied optimum: lex-refined, never the float-failure fallback
}

func presolveCases() []presolveCase {
	return []presolveCase{
		{
			name: "empty-row-drops",
			build: func() *Problem {
				p := NewProblem(Minimize)
				x := p.NewVariable("x")
				p.SetObjective(TInt(x, 1))
				p.AddConstraint([]Term{TInt(x, 0)}, LE, rational.One()) // 0 ≤ 1
				p.AddConstraint([]Term{TInt(x, 1)}, GE, rational.Int(2))
				return p
			},
			minRows: 2, wantStatus: Optimal, // empty row + shifted bound row
		},
		{
			name: "empty-row-infeasible",
			build: func() *Problem {
				p := NewProblem(Minimize)
				x := p.NewVariable("x")
				p.SetObjective(TInt(x, 1))
				p.AddConstraint([]Term{TInt(x, 0)}, GE, rational.Int(3)) // 0 ≥ 3
				return p
			},
			wantStatus: Infeasible,
		},
		{
			name: "non-binding-row-drops",
			build: func() *Problem {
				p := NewProblem(Minimize)
				x := p.NewVariable("x")
				y := p.NewVariable("y")
				p.SetObjective(TInt(x, 1), TInt(y, 2))
				p.AddConstraint([]Term{TInt(x, 1), TInt(y, 1)}, GE, rational.Int(-1)) // activity ≥ 0
				p.AddConstraint([]Term{TInt(x, 1), TInt(y, 1)}, GE, rational.Int(4))
				return p
			},
			minRows: 1, wantStatus: Optimal,
		},
		{
			name: "forcing-row-fixes-all",
			build: func() *Problem {
				p := NewProblem(Maximize)
				x := p.NewVariable("x")
				y := p.NewVariable("y")
				z := p.NewVariable("z")
				p.SetObjective(TInt(x, 1), TInt(y, 1), TInt(z, 1))
				p.AddConstraint([]Term{TInt(x, 1), TInt(y, 2)}, LE, rational.Zero()) // forces x=y=0
				p.AddConstraint([]Term{TInt(z, 1)}, LE, rational.Int(5))
				return p
			},
			minRows: 1, minCols: 2, wantStatus: Optimal,
		},
		{
			name: "singleton-eq-fixes",
			build: func() *Problem {
				p := NewProblem(Minimize)
				x := p.NewVariable("x")
				y := p.NewVariable("y")
				p.SetObjective(TInt(x, 1), TInt(y, 3))
				p.AddConstraint([]Term{TInt(x, 2)}, EQ, rational.Int(4)) // x = 2
				p.AddConstraint([]Term{TInt(x, 1), TInt(y, 1)}, GE, rational.Int(3))
				return p
			},
			minRows: 1, minCols: 1, wantStatus: Optimal,
		},
		{
			name: "singleton-eq-negative-infeasible",
			build: func() *Problem {
				p := NewProblem(Minimize)
				x := p.NewVariable("x")
				p.SetObjective(TInt(x, 1))
				p.AddConstraint([]Term{TInt(x, 2)}, EQ, rational.Int(-4))
				return p
			},
			wantStatus: Infeasible,
		},
		{
			name: "singleton-ge-shifts",
			build: func() *Problem {
				p := NewProblem(Minimize)
				x := p.NewVariable("x")
				y := p.NewVariable("y")
				p.SetObjective(TInt(x, 2), TInt(y, 1))
				p.AddConstraint([]Term{TInt(x, 1)}, GE, rational.Int(3)) // x = x' + 3
				p.AddConstraint([]Term{TInt(x, 1), TInt(y, 1)}, GE, rational.Int(5))
				return p
			},
			minRows: 1, wantStatus: Optimal,
		},
		{
			name: "singleton-le-zero-fixes",
			build: func() *Problem {
				p := NewProblem(Minimize)
				x := p.NewVariable("x")
				y := p.NewVariable("y")
				p.SetObjective(TInt(x, -1), TInt(y, 1))
				p.AddConstraint([]Term{TInt(x, 3)}, LE, rational.Zero()) // x = 0
				p.AddConstraint([]Term{TInt(y, 1)}, GE, rational.One())
				return p
			},
			minRows: 1, minCols: 1, wantStatus: Optimal,
		},
		{
			name: "singleton-le-negative-infeasible",
			build: func() *Problem {
				p := NewProblem(Minimize)
				x := p.NewVariable("x")
				p.SetObjective(TInt(x, 1))
				p.AddConstraint([]Term{TInt(x, 1)}, LE, rational.Int(-1))
				return p
			},
			wantStatus: Infeasible,
		},
		{
			name: "empty-column-fixes-at-zero",
			build: func() *Problem {
				p := NewProblem(Minimize)
				x := p.NewVariable("x")
				u := p.NewVariable("unused") // positive cost, no rows
				p.SetObjective(TInt(x, 1), TInt(u, 7))
				p.AddConstraint([]Term{TInt(x, 1)}, GE, rational.Int(2))
				return p
			},
			minCols: 1, wantStatus: Optimal,
		},
		{
			name: "empty-column-unbounded",
			build: func() *Problem {
				p := NewProblem(Minimize)
				x := p.NewVariable("x")
				u := p.NewVariable("ray") // negative cost, no rows: improving ray
				p.SetObjective(TInt(x, 1), TInt(u, -1))
				p.AddConstraint([]Term{TInt(x, 1)}, GE, rational.Int(2))
				return p
			},
			wantStatus: Unbounded,
		},
		{
			name: "infeasibility-beats-unbounded-ray",
			build: func() *Problem {
				p := NewProblem(Minimize)
				x := p.NewVariable("x")
				u := p.NewVariable("ray")
				p.SetObjective(TInt(x, 1), TInt(u, -1))
				p.AddConstraint([]Term{TInt(x, 1)}, GE, rational.Int(2))
				p.AddConstraint([]Term{TInt(x, 1), TInt(x, 1)}, LE, rational.Int(2)) // 2x ≤ 2
				return p
			},
			wantStatus: Infeasible,
		},
		{
			name: "free-singleton-eq-substitutes",
			build: func() *Problem {
				p := NewProblem(Minimize)
				f := p.FreeVariable("f")
				x := p.NewVariable("x")
				p.SetObjective(TInt(f, 2), TInt(x, 1))
				p.AddConstraint([]Term{TInt(f, 1), TInt(x, 1)}, EQ, rational.Int(5)) // f = 5 − x
				p.AddConstraint([]Term{TInt(x, 1)}, LE, rational.Int(3))
				return p
			},
			minRows: 1, minCols: 1, wantStatus: Optimal,
		},
		{
			name: "implied-slack-relaxes-equation",
			build: func() *Problem {
				p := NewProblem(Maximize)
				x := p.NewVariable("x")
				y := p.NewVariable("y")
				s := p.NewVariable("s") // zero cost, only in the equation: a slack
				p.SetObjective(TInt(x, 2), TInt(y, 1))
				p.AddConstraint([]Term{TInt(x, 1), TInt(y, 1), TInt(s, 1)}, EQ, rational.Int(4))
				return p
			},
			minCols: 1, wantStatus: Optimal,
		},
		{
			name: "tied-optimum-lex-refined",
			build: func() *Problem {
				p := NewProblem(Maximize)
				x := p.NewVariable("x")
				y := p.NewVariable("y")
				s := p.NewVariable("s")
				p.SetObjective(TInt(x, 1), TInt(y, 1)) // x+y ≤ 4: a tied face
				p.AddConstraint([]Term{TInt(x, 1), TInt(y, 1), TInt(s, 1)}, EQ, rational.Int(4))
				return p
			},
			minCols: 1, wantStatus: Optimal, wantTied: true,
		},
	}
}

// TestPresolveReductions runs every reduction case through both
// strategies, demanding byte-identical results, the expected status,
// and that the presolver actually performed (at least) the advertised
// reductions.
func TestPresolveReductions(t *testing.T) {
	for _, tc := range presolveCases() {
		t.Run(tc.name, func(t *testing.T) {
			var stats SolveStats
			exact, warm := solveBoth(t, tc.build(), &stats)
			assertIdentical(t, exact, warm)
			if warm.Status != tc.wantStatus {
				t.Fatalf("status = %v, want %v", warm.Status, tc.wantStatus)
			}
			if stats.PresolveRows < tc.minRows {
				t.Errorf("PresolveRows = %d, want ≥ %d", stats.PresolveRows, tc.minRows)
			}
			if stats.PresolveCols < tc.minCols {
				t.Errorf("PresolveCols = %d, want ≥ %d", stats.PresolveCols, tc.minCols)
			}
			if tc.wantTied && (!stats.TiedOptima || stats.Fallback) {
				t.Errorf("tied optimum should be lex-refined without the cold fallback, got %+v", stats)
			}
		})
	}
}

// TestPresolveNoPresolveKnob asserts the opt-out really skips the
// reductions and still produces the identical answer.
func TestPresolveNoPresolveKnob(t *testing.T) {
	build := func() *Problem {
		p := NewProblem(Minimize)
		x := p.NewVariable("x")
		y := p.NewVariable("y")
		p.SetObjective(TInt(x, 1), TInt(y, 3))
		p.AddConstraint([]Term{TInt(x, 2)}, EQ, rational.Int(4))
		p.AddConstraint([]Term{TInt(x, 1), TInt(y, 1)}, GE, rational.Int(3))
		return p
	}
	var on, off SolveStats
	with, err := build().SolveWithOpts(context.Background(), SolveOpts{Stats: &on})
	if err != nil {
		t.Fatal(err)
	}
	without, err := build().SolveWithOpts(context.Background(), SolveOpts{NoPresolve: true, Stats: &off})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, with, without)
	if on.PresolveRows == 0 && on.PresolveCols == 0 {
		t.Error("presolve fired nothing on a reducible problem")
	}
	if off.PresolveRows != 0 || off.PresolveCols != 0 {
		t.Errorf("NoPresolve still reduced: %+v", off)
	}
}

// TestPresolvePostsolveStrongDuality is the property test required of
// the postsolve: the reconstructed solution must satisfy the original
// problem exactly (Verify) and its objective must equal the optimum
// of the original problem's dual — the strong-duality certificate,
// computed entirely on the *unreduced* LP.
func TestPresolvePostsolveStrongDuality(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Problem
	}{
		{"free-singleton-eq", func() *Problem {
			p := NewProblem(Minimize)
			f := p.FreeVariable("f")
			x := p.NewVariable("x")
			p.SetObjective(TInt(f, 2), TInt(x, 1))
			p.AddConstraint([]Term{TInt(f, 1), TInt(x, 1)}, EQ, rational.Int(5))
			p.AddConstraint([]Term{TInt(x, 1)}, LE, rational.Int(3))
			return p
		}},
		{"implied-slack", func() *Problem {
			p := NewProblem(Minimize)
			x := p.NewVariable("x")
			y := p.NewVariable("y")
			s := p.NewVariable("s")
			p.SetObjective(TInt(x, -2), TInt(y, -1))
			p.AddConstraint([]Term{TInt(x, 1), TInt(y, 1), TInt(s, 1)}, EQ, rational.Int(4))
			return p
		}},
		{"shift-and-fix", func() *Problem {
			p := NewProblem(Minimize)
			x := p.NewVariable("x")
			y := p.NewVariable("y")
			z := p.NewVariable("z")
			p.SetObjective(TInt(x, 2), TInt(y, 1), TInt(z, 5))
			p.AddConstraint([]Term{TInt(x, 1)}, GE, rational.Int(3))
			p.AddConstraint([]Term{TInt(z, 1)}, EQ, rational.Int(2))
			p.AddConstraint([]Term{TInt(x, 1), TInt(y, 1)}, GE, rational.Int(5))
			return p
		}},
		{"tailored-n3", func() *Problem { return tailoredTestLP(3, rational.New(1, 4)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build()
			sol, err := p.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != Optimal {
				t.Fatalf("status = %v", sol.Status)
			}
			if err := sol.Verify(p); err != nil {
				t.Fatalf("postsolved solution fails Verify on the original LP: %v", err)
			}
			dual, err := p.Dual()
			if err != nil {
				t.Fatalf("dual: %v", err)
			}
			dsol, err := dual.Solve()
			if err != nil {
				t.Fatalf("dual solve: %v", err)
			}
			if dsol.Status != Optimal {
				t.Fatalf("dual status = %v", dsol.Status)
			}
			if sol.Objective.Cmp(dsol.Objective) != 0 {
				t.Fatalf("strong duality violated: primal %s, dual %s",
					sol.Objective.RatString(), dsol.Objective.RatString())
			}
		})
	}
}

// TestPresolveAllVariablesEliminated covers the path where presolve
// alone determines every variable and no reduced solve runs.
func TestPresolveAllVariablesEliminated(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.NewVariable("x")
	y := p.NewVariable("y")
	p.SetObjective(TInt(x, 3), TInt(y, -2))
	p.AddConstraint([]Term{TInt(x, 2)}, EQ, rational.Int(6))
	p.AddConstraint([]Term{TInt(x, 1), TInt(y, 1)}, EQ, rational.Int(3)) // after x=3: y=0
	var stats SolveStats
	sol, err := p.SolveWithOpts(context.Background(), SolveOpts{Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if got := sol.Value(x); got.Cmp(rational.Int(3)) != 0 {
		t.Errorf("x = %s, want 3", got.RatString())
	}
	if got := sol.Value(y); got.Sign() != 0 {
		t.Errorf("y = %s, want 0", got.RatString())
	}
	if sol.Objective.Cmp(rational.Int(9)) != 0 {
		t.Errorf("objective = %s, want 9", sol.Objective.RatString())
	}
	if stats.PresolveCols != 2 {
		t.Errorf("PresolveCols = %d, want 2", stats.PresolveCols)
	}
	if stats.FloatPivots != 0 || stats.ExactPivots != 0 || stats.RevisedPivots != 0 {
		t.Errorf("fully-presolved LP still ran the solver: %+v", stats)
	}
	if err := sol.Verify(p); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

// FuzzPresolveMatchesDense decodes deliberately sparse LPs — rows with
// few nonzeros, so empty rows, singletons, and empty columns abound —
// and asserts the presolve+revised pipeline and StrategyExact are both
// byte-identical to the dense oracle (lexOracle), and that Optimal
// solutions verify against the original problem. The committed corpus under
// testdata/fuzz includes tied-optimum and degenerate seeds.
func FuzzPresolveMatchesDense(f *testing.F) {
	for _, seed := range presolveSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzSparseProblem(data)
		if p == nil {
			t.Skip()
		}
		assertMatchesOracle(t, p)
	})
}

// presolveSeeds are FuzzPresolveMatchesDense's seed inputs: nv, nc,
// then per constraint a sparse coefficient nibble per var, an
// operator, an rhs. A spread of shapes incl. ties/degeneracy.
var presolveSeeds = [][]byte{
	{2, 1, 9, 9, 0, 4, 251, 251},       // x+y ≤ 4, max x+y: tied edge
	{3, 2, 9, 0, 0, 2, 0, 9, 9, 0, 4},  // singleton + pair
	{1, 1, 0, 1, 3, 5},                 // empty row
	{4, 3, 9, 1, 0, 0, 2, 8, 0, 9, 10}, // mixed ops
	{2, 2, 9, 10, 1, 0, 10, 9, 2, 0, 0, 0},
}

// fuzzSparseProblem decodes an LP whose rows are mostly sparse:
// coefficient bytes map to zero more than half the time, free
// variables and all three operators occur, and costs take both signs.
func fuzzSparseProblem(data []byte) *Problem {
	if len(data) < 2 {
		return nil
	}
	nv := 1 + int(data[0]%5)
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
		if next()%7 == 0 {
			vars[i] = p.FreeVariable(fmt.Sprintf("f%d", i))
		} else {
			vars[i] = p.NewVariable(fmt.Sprintf("v%d", i))
		}
		p.SetObjectiveCoeff(vars[i], rational.Int(int64(next()%9)-4))
	}
	for c := 0; c < nc; c++ {
		var terms []Term
		for i := range vars {
			// 0..4 → zero (sparse), 5..12 → −4..3 skipping 0
			b := next() % 13
			if b < 5 {
				continue
			}
			coeff := int64(b) - 9
			if coeff >= 0 {
				coeff++
			}
			terms = append(terms, TInt(vars[i], coeff))
		}
		op := Op(next() % 3)
		rhs := rational.Int(int64(next()%11) - 4)
		// A termless constraint is a legitimate empty row.
		p.AddConstraint(terms, op, rhs)
	}
	return p
}
