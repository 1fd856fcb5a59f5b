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
// two-phase primal simplex method. All pivoting is exact, and Bland's
// anti-cycling rule guarantees termination, so the solver needs no
// numeric tolerances: feasibility and optimality certificates are true
// rational equalities.
//
// By default Solve does not run the two-phase method cold: it first
// lets a dense float64 simplex (floatsimplex.go) locate a candidate
// optimal basis in microseconds, then certifies that basis in exact
// arithmetic (warmstart.go), resuming exact revised-simplex pivoting
// from it when the certificate fails and running the dense two-phase
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
	"runtime"
	"sort"
	"sync"

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
// (float-guided warm start, parallel pivoting) under ctx. The pivot
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
// (lex.go), and the full two-phase rational simplex runs only when
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
// first under StrategyWarmStart; the dense two-phase solve runs under
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
	tab, status, err := s.phase1(ctx, opts)
	if err != nil {
		return nil, false, err
	}
	if status == Infeasible {
		return &Solution{Status: Infeasible}, false, nil
	}
	status, err = s.phase2(ctx, tab)
	if err != nil {
		return nil, false, err
	}
	if status == Unbounded {
		return &Solution{Status: Unbounded}, false, nil
	}
	return s.denseOptimum(ctx, tab, opts)
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
	nart       int
	nrows      int
	structural int        // number of structural columns; slack/surplus follow
	colPos     []int      // original var -> positive part column
	colNeg     []int      // original var -> negative part column (-1 if non-free)
	rows       [][]spTerm // sparse rows of A, sorted by column index
	slack      []int      // per row: the +1 slack column seeding the basis, or -1
	b          []*big.Rat
	c          []*big.Rat // phase-2 cost over structural+slack columns, minimization sense
	artOffset  int

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
	s.artOffset = s.ncols
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

// tableau is a simplex dictionary: rows of [A | b] with basis indices
// and a reduced-cost row z of len totalCols, plus current (negated)
// objective value.
type tableau struct {
	rows  [][]*big.Rat // nrows × (totalCols+1); last entry is rhs
	basis []int
	z     []*big.Rat // reduced costs, len totalCols
	obj   *big.Rat   // current objective value (minimization sense)
	ncols int        // total columns, incl. artificials
	art   int        // first artificial column (== len without artificials)

	stats    *SolveStats // optional solve counters (nil = not recorded)
	parallel bool        // allow parallel row elimination in pivot

	// Pooled scratch for the ratio-test and pivot inner loops, reused
	// across pivots so the hot rational kernels do not allocate per
	// row per pivot.
	inv, zf, f, tmp *big.Rat
	ratio, best     *big.Rat
	nz              []int
}

// initScratch attaches opts-driven knobs and allocates the pooled
// scratch. Every tableau constructor must call it before pivoting.
func (t *tableau) initScratch(opts *SolveOpts) {
	if opts != nil {
		t.stats = opts.Stats
		t.parallel = !opts.NoParallelPivot
	}
	t.inv = new(big.Rat)
	t.zf = new(big.Rat)
	t.f = new(big.Rat)
	t.tmp = new(big.Rat)
	t.ratio = new(big.Rat)
	t.best = new(big.Rat)
	t.nz = make([]int, 0, t.ncols+1)
}

// phase1 builds the initial tableau with artificial variables where
// needed, minimizes their sum, and reports Infeasible if it cannot be
// driven to zero.
func (s *standardForm) phase1(ctx context.Context, opts *SolveOpts) (*tableau, Status, error) {
	// Decide per-row whether a slack can serve as the initial basic
	// variable (only for LE rows after sign normalisation, where the
	// slack has +1 coefficient).
	t := &tableau{art: s.ncols}
	t.basis = make([]int, s.nrows)
	nart := 0
	basisFromSlack := s.initialBasis()
	for r := 0; r < s.nrows; r++ {
		if basisFromSlack[r] < 0 {
			nart++
		}
	}
	s.nart = nart
	t.ncols = s.ncols + nart
	t.initScratch(opts)
	t.rows = make([][]*big.Rat, s.nrows)
	artCol := s.ncols
	for r := 0; r < s.nrows; r++ {
		row := make([]*big.Rat, t.ncols+1)
		for j := range row {
			row[j] = new(big.Rat)
		}
		for _, e := range s.rows[r] {
			row[e.idx].Set(e.v)
		}
		row[t.ncols].Set(s.b[r])
		if basisFromSlack[r] >= 0 {
			t.basis[r] = basisFromSlack[r]
		} else {
			row[artCol] = rational.One()
			t.basis[r] = artCol
			artCol++
		}
		t.rows[r] = row
	}
	// Phase-1 cost: minimize sum of artificials. Reduced costs:
	// z_j = c_j − Σ_{basic rows} c_B · a_rj, with c = 1 on artificials.
	t.z = rational.Vector(t.ncols)
	t.obj = rational.Zero()
	for j := s.ncols; j < t.ncols; j++ {
		t.z[j] = rational.One()
	}
	for r := 0; r < s.nrows; r++ {
		if t.basis[r] >= s.ncols { // artificial basic: subtract its row
			for j := 0; j < t.ncols; j++ {
				t.z[j].Sub(t.z[j], t.rows[r][j])
			}
			t.obj.Sub(t.obj, t.rows[r][t.ncols])
		}
	}
	status, err := t.iterate(ctx, nil)
	if err != nil {
		return nil, NoStatus, err
	}
	if status == Unbounded {
		// Phase 1 is bounded below by 0; unbounded cannot happen, but
		// guard anyway.
		return nil, Infeasible, nil
	}
	// Feasible iff artificial sum is zero. obj holds −(current value).
	if t.obj.Sign() != 0 {
		return nil, Infeasible, nil
	}
	// Drive any artificial variables remaining in the basis out.
	for r := 0; r < s.nrows; r++ {
		if t.basis[r] < s.ncols {
			continue
		}
		pivoted := false
		for j := 0; j < s.ncols; j++ {
			if t.rows[r][j].Sign() != 0 {
				t.pivot(r, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: zero out; its artificial stays basic at 0
			// and will never re-enter because phase 2 bans artificial
			// columns from entering.
			continue
		}
	}
	return t, Optimal, nil
}

func (s *standardForm) isSlackColumn(j int) bool {
	// Slack/surplus columns are those after the structural block.
	return j >= s.structural
}

// initialBasis returns, per row, the slack column usable as that
// row's initial basic variable, or −1 where the row needs an
// artificial. The candidate is recorded during construction: each
// slack/surplus column appears in exactly one row, so a row's own
// +1-coefficient slack (LE rows after sign normalization) is the
// unique choice. Both the exact phase 1 and the float solver seed
// their bases from this, which keeps their pivot paths aligned for
// the warm-start crossover.
func (s *standardForm) initialBasis() []int {
	return append([]int(nil), s.slack...)
}

// phase2 swaps in the real cost vector and re-optimizes, forbidding
// artificial columns from entering.
func (s *standardForm) phase2(ctx context.Context, t *tableau) (Status, error) {
	// Rebuild reduced costs for the real objective:
	// z_j = c_j − Σ_r c_{B(r)} a_{rj};  obj = −Σ_r c_{B(r)} b_r.
	t.z = rational.Vector(t.ncols)
	t.obj = rational.Zero()
	for j := 0; j < s.ncols; j++ {
		t.z[j] = rational.Clone(s.c[j])
	}
	tmp := rational.Zero()
	for r := 0; r < s.nrows; r++ {
		bi := t.basis[r]
		var cb *big.Rat
		if bi < s.ncols {
			cb = s.c[bi]
		} else {
			cb = rational.Zero() // leftover artificial pinned at 0
		}
		if cb.Sign() == 0 {
			continue
		}
		for j := 0; j < t.ncols; j++ {
			tmp.Mul(cb, t.rows[r][j])
			t.z[j].Sub(t.z[j], tmp)
		}
		tmp.Mul(cb, t.rows[r][t.ncols])
		t.obj.Sub(t.obj, tmp)
	}
	banned := make([]bool, t.ncols)
	for j := s.ncols; j < t.ncols; j++ {
		banned[j] = true
	}
	return t.iterate(ctx, banned)
}

// iterate runs simplex pivots until optimal, unbounded, or ctx
// cancellation (the solver's cancellation checkpoint: one ctx.Err()
// read per pivot, negligible next to the rational arithmetic of the
// pivot itself). banned marks columns that may not enter (nil =
// none).
//
// Pivot rule: Dantzig (most negative reduced cost) by default — it
// needs far fewer pivots, which matters doubly here because every
// pivot also grows the rational entries — switching to Bland's rule
// whenever the objective has stalled for a while. Bland's rule cannot
// cycle, so the hybrid terminates; degenerate stretches are exactly
// where Dantzig could loop.
func (t *tableau) iterate(ctx context.Context, banned []bool) (Status, error) {
	const stallLimit = 12 // degenerate pivots tolerated before engaging Bland
	stalled := 0
	lastObj := rational.Clone(t.obj)
	for {
		if err := ctx.Err(); err != nil {
			// NoStatus, never Optimal: an aborted solve must not be
			// mistakable for a certified one by a caller that checks the
			// status before the error.
			return NoStatus, err
		}
		useBland := stalled >= stallLimit
		enter := -1
		var best *big.Rat
		for j := 0; j < t.ncols; j++ {
			if banned != nil && banned[j] {
				continue
			}
			if t.z[j].Sign() >= 0 {
				continue
			}
			if useBland {
				enter = j
				break // Bland: smallest eligible index
			}
			if enter < 0 || t.z[j].Cmp(best) < 0 {
				enter = j
				best = t.z[j]
			}
		}
		if enter < 0 {
			return Optimal, nil
		}
		leave := -1
		// Two pooled scratch Rats ping-pong between "candidate" and
		// "best so far", so the ratio test allocates nothing.
		ratio, bestRatio := t.ratio, t.best
		for r := range t.rows {
			arj := t.rows[r][enter]
			if arj.Sign() <= 0 {
				continue
			}
			ratio.Quo(t.rows[r][t.ncols], arj)
			if leave < 0 || ratio.Cmp(bestRatio) < 0 ||
				(ratio.Cmp(bestRatio) == 0 && t.basis[r] < t.basis[leave]) {
				leave = r
				ratio, bestRatio = bestRatio, ratio
			}
		}
		if leave < 0 {
			return Unbounded, nil
		}
		t.pivot(leave, enter)
		if t.obj.Cmp(lastObj) == 0 {
			stalled++
		} else {
			stalled = 0
			lastObj.Set(t.obj)
		}
	}
}

// parallelPivotMinWork is the rows×nonzeros product above which pivot
// row elimination fans out across goroutines. Below it the rational
// arithmetic per pivot is cheaper than goroutine handoff; at the
// serving-size mechanism LPs a single pivot is hundreds of thousands
// of big.Rat multiplies and the fan-out wins decisively.
const parallelPivotMinWork = 2048

// pivot performs a full tableau pivot on (row, col). Only the nonzero
// columns of the pivot row participate in the elimination — simplex
// tableaus on the paper's LPs stay sparse for many iterations, and
// skipping structural zeros is a large constant-factor win for
// rational arithmetic.
//
// The body works entirely in pooled scratch (t.inv, t.zf, t.tmp) —
// the hotpath annotation holds the pool discipline in place.
//
//dpvet:hotpath
func (t *tableau) pivot(row, col int) {
	if t.stats != nil {
		t.stats.ExactPivots++
	}
	pr := t.rows[row]
	t.inv.Inv(pr[col])
	nz := t.nz[:0]
	for j := range pr {
		if pr[j].Sign() == 0 {
			continue
		}
		pr[j].Mul(pr[j], t.inv)
		nz = append(nz, j)
	}
	t.nz = nz
	if t.parallel && (len(t.rows)-1)*len(nz) >= parallelPivotMinWork {
		t.eliminateRowsParallel(row, col, pr, nz)
	} else {
		t.eliminateRows(row, col, pr, nz)
	}
	zf := t.zf
	zf.Set(t.z[col])
	if zf.Sign() != 0 {
		tmp := t.tmp
		for _, j := range nz {
			tmp.Mul(zf, pr[j])
			if j < t.ncols {
				t.z[j].Sub(t.z[j], tmp)
			} else {
				t.obj.Sub(t.obj, tmp)
			}
		}
	}
	t.basis[row] = col
}

// eliminateRows is the serial elimination kernel: subtract
// factor×(pivot row) from every other row with a nonzero in the pivot
// column. The factor is copied into pooled scratch first because
// tr[col] — the factor's own cell — is zeroed mid-loop.
//
//dpvet:hotpath
func (t *tableau) eliminateRows(row, col int, pr []*big.Rat, nz []int) {
	f, tmp := t.f, t.tmp
	for r := range t.rows {
		if r == row {
			continue
		}
		tr := t.rows[r]
		if tr[col].Sign() == 0 {
			continue
		}
		f.Set(tr[col])
		for _, j := range nz {
			tmp.Mul(f, pr[j])
			tr[j].Sub(tr[j], tmp)
		}
	}
}

// eliminateRowsParallel fans the eliminations out across a bounded
// set of goroutines. Safe without locks: each worker owns a disjoint
// chunk of rows and its own scratch Rats, the pivot row pr and nz are
// read-only here (normalized before the fan-out), and the z-row is
// updated serially by the caller afterwards.
func (t *tableau) eliminateRowsParallel(row, col int, pr []*big.Rat, nz []int) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(t.rows) {
		workers = len(t.rows)
	}
	if workers < 2 {
		t.eliminateRows(row, col, pr, nz)
		return
	}
	if t.stats != nil {
		t.stats.ParallelPivots++
	}
	chunk := (len(t.rows) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(t.rows); lo += chunk {
		hi := lo + chunk
		if hi > len(t.rows) {
			hi = len(t.rows)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f := new(big.Rat)
			tmp := new(big.Rat)
			for r := lo; r < hi; r++ {
				if r == row {
					continue
				}
				tr := t.rows[r]
				if tr[col].Sign() == 0 {
					continue
				}
				f.Set(tr[col])
				for _, j := range nz {
					tmp.Mul(f, pr[j])
					tr[j].Sub(tr[j], tmp)
				}
			}
		}(lo, hi)
	}
	wg.Wait()
}

// extract reads the optimal original-variable values out of the final
// tableau.
func (s *standardForm) extract(t *tableau) []*big.Rat {
	colVal := rational.Vector(t.ncols)
	for r, bi := range t.basis {
		colVal[bi] = rational.Clone(t.rows[r][t.ncols])
	}
	return s.extractFromCols(colVal)
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
