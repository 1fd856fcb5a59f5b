// Package lp implements an exact linear-programming solver over
// rationals (math/big.Rat), together with a small modelling layer.
//
// The paper's two central computations are linear programs:
//
//   - the optimal consumer interaction T* against a deployed mechanism
//     (Section 2.4.3), and
//   - the optimal α-differentially-private mechanism tailored to a
//     known consumer (Section 2.5).
//
// Go's standard library has no LP solver, so this package provides a
// two-phase primal revised simplex method over an exact sparse LU
// factorization (revised.go). All pivoting is exact, and Bland's
// anti-cycling rule guarantees termination, so the solver needs no
// numeric tolerances: feasibility and optimality certificates are true
// rational equalities.
//
// By default Solve does not run the two-phase method cold: it first
// lets a dense float64 simplex (floatsimplex.go) locate a candidate
// optimal basis in microseconds, then certifies that basis in exact
// arithmetic (warmstart.go), resuming exact revised-simplex pivoting
// from it when the certificate fails and running the cold two-phase
// method only when the float solve fails outright. Every Optimal
// result is the canonical optimum — the lexicographically smallest
// optimal point (lex.go) — so it is byte-identical whichever path ran;
// SolveOpts selects the pure exact strategy for ablations and
// cross-checks.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sort"

	"minimaxdp/internal/rational"
)

// Sense selects minimization or maximization of the objective.
type Sense int

// Objective senses.
const (
	Minimize Sense = iota
	Maximize
)

// Op is a constraint comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota // Σ aᵢxᵢ ≤ b
	GE           // Σ aᵢxᵢ ≥ b
	EQ           // Σ aᵢxᵢ = b
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Var identifies a decision variable within its Problem.
type Var int

// Term is one coefficient·variable pair of a linear expression.
type Term struct {
	Var   Var
	Coeff *big.Rat
}

// T builds a Term; a convenience for call sites.
func T(v Var, coeff *big.Rat) Term { return Term{Var: v, Coeff: coeff} }

// TInt builds a Term with an integer coefficient.
func TInt(v Var, coeff int64) Term { return Term{Var: v, Coeff: rational.Int(coeff)} }

// Status reports the outcome of Solve.
type Status int

// Solver outcomes. NoStatus is deliberately the zero value: a solve
// that was canceled or errored reports NoStatus, so a caller that
// (incorrectly) consults the status before the error can never
// mistake an aborted solve for a certified Optimal one.
const (
	NoStatus Status = iota // no verdict: the solve was canceled or errored
	Optimal
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case NoStatus:
		return "none"
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return "unknown"
}

// Solution holds the result of solving a Problem.
type Solution struct {
	Status Status
	// Objective is the optimal objective value in the problem's own
	// sense (only meaningful when Status == Optimal).
	Objective *big.Rat
	// X holds the optimal value of every variable, indexed by Var.
	X []*big.Rat
}

// Value returns the optimal value of v.
func (s *Solution) Value(v Var) *big.Rat {
	return rational.Clone(s.X[int(v)])
}

type variable struct {
	name string
	free bool
}

type constraint struct {
	terms []Term
	op    Op
	rhs   *big.Rat
}

// Problem is a linear program under construction. Variables are
// non-negative unless declared with FreeVariable.
type Problem struct {
	sense     Sense
	vars      []variable
	objective []*big.Rat // dense, indexed by Var
	cons      []constraint
}

// NewProblem returns an empty problem with the given objective sense.
func NewProblem(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// NewVariable adds a non-negative decision variable.
func (p *Problem) NewVariable(name string) Var {
	p.vars = append(p.vars, variable{name: name})
	p.objective = append(p.objective, rational.Zero())
	return Var(len(p.vars) - 1)
}

// FreeVariable adds an unrestricted (possibly negative) variable.
func (p *Problem) FreeVariable(name string) Var {
	p.vars = append(p.vars, variable{name: name, free: true})
	p.objective = append(p.objective, rational.Zero())
	return Var(len(p.vars) - 1)
}

// NumVariables returns the number of declared variables.
func (p *Problem) NumVariables() int { return len(p.vars) }

// NumConstraints returns the number of added constraints.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// SetObjectiveCoeff sets the objective coefficient of v.
func (p *Problem) SetObjectiveCoeff(v Var, c *big.Rat) {
	p.objective[int(v)] = rational.Clone(c)
}

// SetObjective replaces the whole objective with the given terms.
func (p *Problem) SetObjective(terms ...Term) {
	for i := range p.objective {
		p.objective[i] = rational.Zero()
	}
	for _, t := range terms {
		p.objective[int(t.Var)].Add(p.objective[int(t.Var)], t.Coeff)
	}
}

// AddConstraint adds Σ terms (op) rhs. Terms referencing the same
// variable are accumulated.
func (p *Problem) AddConstraint(terms []Term, op Op, rhs *big.Rat) {
	cp := make([]Term, len(terms))
	for i, t := range terms {
		cp[i] = Term{Var: t.Var, Coeff: rational.Clone(t.Coeff)}
	}
	p.cons = append(p.cons, constraint{terms: cp, op: op, rhs: rational.Clone(rhs)})
}

// Solve runs the exact solver with default options and returns the
// solution. It is SolveCtx with a background (never-canceled) context.
func (p *Problem) Solve() (*Solution, error) {
	return p.SolveCtx(context.Background())
}

// SolveCtx runs the exact solver with default options
// (presolve, float-guided warm start) under ctx. The pivot
// loop checks ctx between pivots, so a canceled or deadline-expired
// context aborts the solve within one pivot's worth of work and
// returns ctx.Err(). The paper's LPs cost seconds-to-minutes of pure
// rational arithmetic at serving sizes; this checkpoint is what makes
// them deadline-bounded behind a serving surface.
func (p *Problem) SolveCtx(ctx context.Context) (*Solution, error) {
	return p.SolveWithOpts(ctx, SolveOpts{})
}

// SolveWithOpts runs the exact solver under ctx with explicit
// options. The zero SolveOpts is the production default: an exact
// presolve (presolve.go) strips rows and columns resolvable by
// inspection, the float-guided warm start locates a candidate basis
// for what remains, an exact crossover certifies it (warmstart.go),
// a tied optimum is refined to the canonical one on the sparse LU
// (lex.go), and the cold two-phase revised simplex runs only when
// the float solve fails. StrategyExact forces the cold two-phase solve
// on the untouched problem (the ablation baseline), finished by the
// same refinement. Whatever the strategy, the returned Solution is
// certified by exact arithmetic, and an Optimal one is the
// lexicographically smallest optimal point, so both strategies return
// the same bytes.
func (p *Problem) SolveWithOpts(ctx context.Context, opts SolveOpts) (*Solution, error) {
	if len(p.vars) == 0 {
		return nil, errors.New("lp: no variables")
	}
	if opts.Stats != nil {
		*opts.Stats = SolveStats{}
	}
	if opts.Strategy == StrategyWarmStart && !opts.NoPresolve {
		sol, done, err := p.solvePresolved(ctx, &opts)
		if err != nil {
			return nil, err
		}
		if done {
			return sol, nil
		}
		// Presolve either fired nothing or could not certify a unique
		// optimum through the reductions: solve the original problem.
	}
	sol, _, err := newStandardForm(p).solve(ctx, &opts)
	return sol, err
}

// solve runs opts' strategy on the standard form and reports whether
// an Optimal result is the unique optimum. The warm start is tried
// first under StrategyWarmStart; the cold two-phase solve runs under
// StrategyExact or when the warm start demotes (a float failure). Both
// finish on the canonical optimum (lex.go).
func (s *standardForm) solve(ctx context.Context, opts *SolveOpts) (*Solution, bool, error) {
	if opts.Strategy == StrategyWarmStart {
		sol, unique, done, err := s.solveWarmStart(ctx, opts)
		if err != nil || done {
			return sol, unique, err
		}
		if opts.Stats != nil {
			opts.Stats.Fallback = true
		}
	}
	return s.solveCold(ctx, opts)
}

// solveCold is the two-phase revised simplex on the sparse LU of
// revised.go, started from the slack/artificial basis (B = I):
//
//  1. Phase 1 minimizes the sum of the artificials, one per row
//     without a seeding slack (withArtificials), with no lex step. An
//     artificial still basic and nonzero at its optimum proves the LP
//     infeasible.
//  2. Each artificial left basic (at zero) is driven out by a
//     degenerate pivot on the first nonbasic column with a nonzero
//     entry in its row of B⁻¹A. A redundant row has none, and its
//     artificial stays basic at zero, which lexRefine and
//     basicSolution expect.
//  3. Phase 2 is solveRevised under the LP's own cost, ending in the
//     canonical-optimum step.
//
// Artificial columns never enter. Every pivot, the lex step's
// included, counts in SolveStats.ExactPivots; RevisedPivots stays a
// warm-path count.
func (s *standardForm) solveCold(ctx context.Context, opts *SolveOpts) (*Solution, bool, error) {
	if opts.Stats != nil {
		warm := opts.Stats.RevisedPivots
		defer func() {
			opts.Stats.ExactPivots += opts.Stats.RevisedPivots - warm
			opts.Stats.RevisedPivots = warm
		}()
	}
	var h hstats
	defer h.fold(opts.Stats)
	s.withArtificials()
	basis := s.initialBasis()
	phase1 := make([]hval, len(s.columns()))
	art := s.ncols
	for r, j := range basis {
		if j < 0 {
			basis[r] = art
			phase1[art] = hvRat(rational.One())
			art++
		}
	}
	lu, ok := s.factorizeSparse(basis, &h)
	if !ok {
		return nil, false, errInvariant
	}
	xB := lu.solve(s.b)
	if art > s.ncols {
		sol, _, err := s.solveRevised(ctx, basis, xB, lu, &h, opts, phase1, false)
		if err != nil {
			return nil, false, err
		}
		if sol != nil {
			return nil, false, errInvariant // phase 1 is bounded below by 0
		}
		for k, j := range basis {
			if j >= s.ncols && !xB[k].IsZero() {
				return &Solution{Status: Infeasible}, false, nil
			}
		}
		if err := s.driveOutArtificials(basis, xB, lu, &h, opts); err != nil {
			return nil, false, err
		}
	}
	return s.solveRevised(ctx, basis, xB, lu, &h, opts, s.hcost(), true)
}

// driveOutArtificials replaces every artificial left basic at zero
// after phase 1 by a degenerate pivot: BTRAN its row of B⁻¹, and enter
// the first nonbasic column with a nonzero entry in that row of B⁻¹A.
// The basic solution does not move.
func (s *standardForm) driveOutArtificials(basis []int, xB []hval, lu *sparseLU, h *hstats, opts *SolveOpts) error {
	inBasis := make([]bool, s.ncols)
	for _, j := range basis {
		if j < s.ncols {
			inBasis[j] = true
		}
	}
	ep := make([]hval, s.nrows)
	for p, a := range basis {
		if a < s.ncols {
			continue
		}
		ep[p] = hvRat(rational.One())
		beta := lu.solveTranspose(ep)
		ep[p] = hval{}
		for j := 0; j < s.ncols; j++ {
			if inBasis[j] || s.price(h, hval{}, j, beta).IsZero() {
				continue
			}
			inBasis[j] = true
			if err := s.commitPivot(basis, xB, lu, p, j, lu.ftran(s.hcol(j)), h, opts); err != nil {
				return err
			}
			break
		}
	}
	return nil
}

// withArtificials extends the column view with the phase-1 artificial
// unit columns: the k-th artificial, column s.ncols+k, is e_r for the
// k-th row that has no seeding slack. It is idempotent.
func (s *standardForm) withArtificials() {
	cols := s.columns()
	if len(cols) > s.ncols {
		return
	}
	for r, sl := range s.slack {
		if sl < 0 {
			cols = append(cols, []spTerm{{idx: r, v: rational.One()}})
		}
	}
	s.cols = cols
}

// hcost returns the LP's minimization cost over every column of the
// current column view as hvals; artificial columns cost 0.
func (s *standardForm) hcost() []hval {
	cost := make([]hval, len(s.columns()))
	for j, c := range s.c {
		cost[j] = hvRat(c)
	}
	return cost
}

// solution wraps an original-variable assignment as an Optimal
// Solution, computing the objective in the problem's own sense.
func (s *standardForm) solution(x []*big.Rat) *Solution {
	return s.p.optimalSolution(x)
}

// optimalSolution wraps x as an Optimal Solution with the objective
// evaluated over p's own coefficients and sense.
func (p *Problem) optimalSolution(x []*big.Rat) *Solution {
	obj := rational.Zero()
	tmp := rational.Zero()
	for i, c := range p.objective {
		tmp.Mul(c, x[i])
		obj.Add(obj, tmp)
	}
	return &Solution{Status: Optimal, Objective: obj, X: x}
}

// --- standard form and tableau ------------------------------------------

// spTerm is one nonzero of a sparse standard-form row (idx = column)
// or of the lazily built column view (idx = row). The *big.Rat values
// are shared between the two views and are read-only after
// construction: every consumer clones before mutating.
type spTerm struct {
	idx int
	v   *big.Rat
}

// standardForm rewrites the problem as
//
//	min c·y   s.t.  A y = b,  y ≥ 0,  b ≥ 0
//
// with column bookkeeping mapping original variables to standard-form
// columns (free variables split as y⁺ − y⁻). The constraint matrix is
// stored sparsely — the paper's LPs have a handful of nonzeros per
// row, and the dense [][]*big.Rat this replaces dominated the cost of
// a warm-start solve just being allocated and scanned.
type standardForm struct {
	p          *Problem
	ncols      int // structural + slack/surplus columns (artificials appended after)
	nrows      int
	structural int        // number of structural columns; slack/surplus follow
	colPos     []int      // original var -> positive part column
	colNeg     []int      // original var -> negative part column (-1 if non-free)
	rows       [][]spTerm // sparse rows of A, sorted by column index
	slack      []int      // per row: the +1 slack column seeding the basis, or -1
	b          []*big.Rat
	c          []*big.Rat // phase-2 cost over structural+slack columns, minimization sense

	cols  [][]spTerm // lazy column view of rows (see columns)
	hcols [][]hTerm  // lazy hval view of cols (see hcol)
}

func newStandardForm(p *Problem) *standardForm {
	s := &standardForm{p: p}
	s.colPos = make([]int, len(p.vars))
	s.colNeg = make([]int, len(p.vars))
	col := 0
	for i, v := range p.vars {
		s.colPos[i] = col
		col++
		if v.free {
			s.colNeg[i] = col
			col++
		} else {
			s.colNeg[i] = -1
		}
	}
	structural := col
	s.structural = structural
	// Count slack/surplus columns.
	for _, con := range p.cons {
		if con.op != EQ {
			col++
		}
	}
	s.ncols = col
	s.nrows = len(p.cons)
	s.rows = make([][]spTerm, s.nrows)
	s.slack = make([]int, s.nrows)
	s.b = make([]*big.Rat, s.nrows)

	// Per-row accumulation scratch over structural columns: entries are
	// handed off into the sparse row and the slot nil'ed, so the scratch
	// is clean for the next row without a dense sweep.
	scratch := make([]*big.Rat, structural)
	touched := make([]int, 0, 16)
	seen := make([]int, structural) // duplicate-mention stamps, row index + 1
	slackCol := structural
	for r, con := range p.cons {
		rhs := rational.Clone(con.rhs)
		op := con.op
		neg := false
		if rhs.Sign() < 0 {
			neg = true
			rhs.Neg(rhs)
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		// A "≥ 0" row is equivalently "≤ 0" negated; the LE form gets a
		// slack column that can seed the starting basis, avoiding an
		// artificial variable (and a phase-1 pivot) per such row. The
		// optimal-mechanism LPs are dominated by these rows.
		if op == GE && rhs.Sign() == 0 {
			neg = !neg
			op = LE
		}
		// Fast path: no duplicate variable mentions, no zero
		// coefficients, and the row is not negated. Then every
		// coefficient passes through unchanged, so the sparse row can
		// alias the Problem's own *big.Rat values — spTerm values are
		// read-only by contract — instead of paying an allocation and
		// an Add per term. Free variables still clone their negated
		// half. The optimal-mechanism LPs take this path on every row.
		alias := !neg
		if alias {
			for _, t := range con.terms {
				j := s.colPos[t.Var]
				if t.Coeff.Sign() == 0 || seen[j] == r+1 {
					alias = false
					break
				}
				seen[j] = r + 1
			}
		}
		var row []spTerm
		if alias {
			row = make([]spTerm, 0, 2*len(con.terms)+1)
			for _, t := range con.terms {
				row = append(row, spTerm{idx: s.colPos[t.Var], v: t.Coeff})
				if jn := s.colNeg[t.Var]; jn >= 0 {
					row = append(row, spTerm{idx: jn, v: rational.Neg(t.Coeff)})
				}
			}
			sort.Slice(row, func(a, b int) bool { return row[a].idx < row[b].idx })
		} else {
			touched = touched[:0]
			for _, t := range con.terms {
				jp := s.colPos[t.Var]
				if scratch[jp] == nil {
					scratch[jp] = new(big.Rat)
					touched = append(touched, jp)
				}
				scratch[jp].Add(scratch[jp], t.Coeff)
				if jn := s.colNeg[t.Var]; jn >= 0 {
					if scratch[jn] == nil {
						scratch[jn] = new(big.Rat)
						touched = append(touched, jn)
					}
					scratch[jn].Sub(scratch[jn], t.Coeff)
				}
			}
			sort.Ints(touched)
			row = make([]spTerm, 0, len(touched)+1)
			for _, j := range touched {
				v := scratch[j]
				scratch[j] = nil
				if v.Sign() == 0 {
					continue
				}
				if neg {
					v.Neg(v)
				}
				row = append(row, spTerm{idx: j, v: v})
			}
		}
		s.slack[r] = -1
		switch op {
		case LE:
			// The slack column index exceeds every structural index, so
			// appending keeps the row sorted.
			row = append(row, spTerm{idx: slackCol, v: rational.One()})
			s.slack[r] = slackCol
			slackCol++
		case GE:
			row = append(row, spTerm{idx: slackCol, v: rational.New(-1, 1)})
			slackCol++
		}
		s.rows[r] = row
		s.b[r] = rhs
	}

	// Phase-2 cost vector in minimization sense.
	s.c = rational.Vector(s.ncols)
	for i, coef := range p.objective {
		cc := rational.Clone(coef)
		if p.sense == Maximize {
			cc.Neg(cc)
		}
		s.c[s.colPos[i]].Add(s.c[s.colPos[i]], cc)
		if s.colNeg[i] >= 0 {
			s.c[s.colNeg[i]].Sub(s.c[s.colNeg[i]], cc)
		}
	}
	return s
}

// columns returns the column view of the sparse constraint matrix,
// building it on first use: cols[j] lists (row, value) pairs in
// ascending row order, sharing the row view's *big.Rat values.
func (s *standardForm) columns() [][]spTerm {
	if s.cols == nil {
		cols := make([][]spTerm, s.ncols)
		for r, row := range s.rows {
			for _, e := range row {
				cols[e.idx] = append(cols[e.idx], spTerm{idx: r, v: e.v})
			}
		}
		s.cols = cols
	}
	return s.cols
}

// initialBasis returns, per row, the slack column usable as that
// row's initial basic variable, or −1 where the row needs an
// artificial. The candidate is recorded during construction: each
// slack/surplus column appears in exactly one row, so a row's own
// +1-coefficient slack (LE rows after sign normalization) is the
// unique choice. The cold exact solve and the float solver both seed
// their bases from this.
func (s *standardForm) initialBasis() []int {
	return append([]int(nil), s.slack...)
}

// extractFromCols maps a per-column value vector (basic variables set,
// everything else zero) back to original problem variables, recombining
// split free variables. colVal may omit artificial columns.
func (s *standardForm) extractFromCols(colVal []*big.Rat) []*big.Rat {
	x := rational.Vector(len(s.p.vars))
	for i := range s.p.vars {
		x[i] = rational.Clone(colVal[s.colPos[i]])
		if s.colNeg[i] >= 0 {
			x[i].Sub(x[i], colVal[s.colNeg[i]])
		}
	}
	return x
}

// DescribeVar returns the name given to v at creation, for debugging.
func (p *Problem) DescribeVar(v Var) string {
	if int(v) < 0 || int(v) >= len(p.vars) {
		return fmt.Sprintf("var#%d", int(v))
	}
	return p.vars[int(v)].name
}
