// Exact presolve: Andersen-style problem reductions over big.Rat.
//
// Before the simplex machinery sees a Problem, the presolver strips
// structure that can be resolved by inspection — empty rows,
// non-binding (activity-redundant) rows, row singletons (forced
// values and variable bounds), column singletons (free variables
// determined by an equation, implied slacks), forced-to-zero rows,
// and empty columns — and records an operation stack whose reverse
// replay reconstructs the full original-variable solution exactly.
// Every reduction is an *exact* correspondence of feasible sets:
//
//   - dropped rows are implied by the remaining system (so feasible
//     sets are literally equal),
//   - fixed variables take their recorded value in every feasible
//     (or every optimal) point,
//   - shifted variables x = x' + l and substituted variables
//     x_j = (b − Σ a_k x_k)/a_j are affine bijections that preserve
//     the objective up to an additive constant.
//
// Because each correspondence is a bijection on *optimal* sets, a
// uniquely-optimal reduced problem pulls back to a uniquely-optimal
// original, which is what lets the presolved path keep the package's
// byte-identity contract: a presolved result is returned only when
// the reduced solve certifies strict dual non-degeneracy (uniqueness)
// — otherwise the solve is demoted to the standard path on the
// original problem, whose own certificate discipline applies. Status
// verdicts (Infeasible, Unbounded) are set-level facts preserved by
// the correspondences and so are always safe to propagate; the
// presolver additionally defers "unbounded if feasible" discoveries
// (an empty column that can improve the objective forever) until the
// remaining system is known feasible, matching the two-phase solver's
// Infeasible-before-Unbounded precedence.
//
// The postsolve stack replays in reverse. The invariant making this
// sound: an operation's stored terms only reference variables that
// were still alive when the operation was pushed, and such variables
// are eliminated later (if at all), hence reconstructed earlier in
// the reverse replay. Stored rows are snapshots, but the reconstructed
// value is invariant under the substitutions applied after the
// snapshot, because those substitutions preserve each variable's
// original-scale value.
package lp

import (
	"context"
	"math/big"

	"minimaxdp/internal/rational"
)

// solvePresolved runs presolve and, when reductions fire, solves the
// reduced problem and maps the result back. done=false (with nil
// error) means the caller should solve the original problem instead —
// either nothing fired, or the reduced optimum could not be certified
// unique, in which case only a direct solve is sure to return the
// canonical optimum of the original problem.
func (p *Problem) solvePresolved(ctx context.Context, opts *SolveOpts) (*Solution, bool, error) {
	if !p.presolveMayFire() {
		return nil, false, nil
	}
	pr := newPresolver(p)
	if pr.run() == Infeasible {
		pr.recordStats(opts)
		return &Solution{Status: Infeasible}, true, nil
	}
	if !pr.fired() {
		return nil, false, nil
	}
	pr.recordStats(opts)
	if pr.tieResolved {
		// A reduction picked one of several tied optima; only a direct
		// solve of the original problem keeps the identity contract.
		return nil, false, nil
	}
	if pr.colsRemoved == len(pr.elim) {
		// Every variable was resolved by inspection; at fixpoint that
		// means every row was too, so the system is feasible.
		if pr.unboundedRay {
			return &Solution{Status: Unbounded}, true, nil
		}
		return p.optimalSolution(pr.postsolve(nil, nil)), true, nil
	}
	red, varMap := pr.reducedProblem()
	rsol, strict, err := red.solveCertified(ctx, opts)
	if err != nil {
		return nil, false, err
	}
	switch rsol.Status {
	case Infeasible:
		// Infeasibility beats a deferred unbounded ray, matching the
		// two-phase solver's phase-1-first precedence.
		return &Solution{Status: Infeasible}, true, nil
	case Unbounded:
		return &Solution{Status: Unbounded}, true, nil
	}
	if pr.unboundedRay {
		// The reductions held back an improving ray until feasibility
		// of the rest was established; it is established now.
		return &Solution{Status: Unbounded}, true, nil
	}
	if !strict {
		return nil, false, nil // demote: re-solve the original problem
	}
	return p.optimalSolution(pr.postsolve(rsol.X, varMap)), true, nil
}

// presolveMayFire is a no-allocation screen run before the presolver
// is built: it re-checks, over the Problem as modelled, every
// condition under which the first rowPass/colPass sweep could apply a
// reduction. When none can, run() would reach its fixpoint with zero
// changes, so building the presolver — which clones the objective and
// every constraint into big.Rat working copies — is pure overhead;
// the tailored/interaction LPs land here and skip it. The screen errs
// toward true: duplicate variable mentions or zero coefficients in a
// constraint (which term combination could collapse into a smaller
// row) report true rather than reproduce the combination logic, as
// does any structure the mirrored trigger conditions flag. A true
// merely means the presolver runs and decides for itself, exactly as
// before the screen existed.
func (p *Problem) presolveMayFire() bool {
	nv := len(p.vars)
	cnt := make([]int, nv)  // per variable: rows mentioning it
	seen := make([]int, nv) // duplicate-mention stamps, row index + 1
	for r, con := range p.cons {
		if len(con.terms) < 2 {
			return true // empty row or row singleton
		}
		allPos, allNeg := true, true
		for _, t := range con.terms {
			j := int(t.Var)
			if t.Coeff.Sign() == 0 || seen[j] == r+1 {
				return true // combination could shrink the row
			}
			seen[j] = r + 1
			cnt[j]++
			if p.vars[j].free {
				allPos, allNeg = false, false
			} else if t.Coeff.Sign() > 0 {
				allNeg = false
			} else {
				allPos = false
			}
		}
		// Mirror rowPass's activity-analysis triggers (infeasible,
		// non-binding, and forcing rows).
		sgn := con.rhs.Sign()
		switch {
		case allPos && sgn < 0 && (con.op == LE || con.op == EQ),
			allNeg && sgn > 0 && (con.op == GE || con.op == EQ),
			allNeg && sgn >= 0 && con.op == LE,
			allPos && sgn <= 0 && con.op == GE,
			sgn == 0 && ((allPos && con.op != GE) || (allNeg && con.op != LE)):
			return true
		}
	}
	for _, n := range cnt {
		if n < 2 {
			return true // empty column or column singleton
		}
	}
	return false
}

// recordStats publishes the reduction counts. They are recorded even
// when the solve is later demoted to the original problem, so a
// Fallback solve still reports what presolve attempted.
func (pr *presolver) recordStats(opts *SolveOpts) {
	if opts.Stats != nil {
		opts.Stats.PresolveRows = pr.rowsRemoved
		opts.Stats.PresolveCols = pr.colsRemoved
	}
}

// presTerm is one nonzero coefficient of a presolver row, indexed by
// original variable.
type presTerm struct {
	j int
	a *big.Rat
}

// presRow is a mutable working copy of one constraint.
type presRow struct {
	terms []presTerm
	op    Op
	rhs   *big.Rat
	dead  bool
}

// postOpKind tags entries of the postsolve stack.
type postOpKind int

const (
	opFix     postOpKind = iota // X[j] = v
	opShift                     // X[j] += v (variable was rebased x = x' + v)
	opFromRow                   // X[j] = (rhs − Σ terms·X) / a
)

// postOp is one reverse-replayable reconstruction step.
type postOp struct {
	kind  postOpKind
	j     int
	v     *big.Rat   // opFix value / opShift delta
	terms []presTerm // opFromRow: the eliminated row's other terms (snapshot)
	rhs   *big.Rat   // opFromRow: the eliminated row's rhs (snapshot)
	a     *big.Rat   // opFromRow: coefficient of j in that row
}

// presolver holds the mutable reduction state for one Problem.
type presolver struct {
	p    *Problem
	free []bool     // per original var; shifts convert free → non-negative
	cmin []*big.Rat // objective in minimization sense; mutated by substitution folding
	rows []*presRow
	elim []bool  // per original var: eliminated from the reduced problem
	cnt  []int   // per var: live nonzero count across live rows
	use  [][]int // per var: row indices possibly containing it (may be stale)

	ops          []postOp
	unboundedRay bool   // an eliminated column improves the objective without bound
	origEmpty    []bool // per var: column empty in the problem as modelled
	tieResolved  bool   // a reduction chose among tied optima; identity is lost
	rowsRemoved  int
	colsRemoved  int
}

func newPresolver(p *Problem) *presolver {
	pr := &presolver{p: p}
	nv := len(p.vars)
	pr.free = make([]bool, nv)
	for i, v := range p.vars {
		pr.free[i] = v.free
	}
	pr.cmin = make([]*big.Rat, nv)
	for i, c := range p.objective {
		cc := rational.Clone(c)
		if p.sense == Maximize {
			cc.Neg(cc)
		}
		pr.cmin[i] = cc
	}
	pr.elim = make([]bool, nv)
	pr.cnt = make([]int, nv)
	pr.use = make([][]int, nv)
	pr.rows = make([]*presRow, len(p.cons))
	scratch := make([]*big.Rat, nv)
	touched := make([]int, 0, 16)
	for r, con := range p.cons {
		touched = touched[:0]
		for _, t := range con.terms {
			j := int(t.Var)
			if scratch[j] == nil {
				scratch[j] = new(big.Rat)
				touched = append(touched, j)
			}
			scratch[j].Add(scratch[j], t.Coeff)
		}
		row := &presRow{op: con.op, rhs: rational.Clone(con.rhs)}
		for _, j := range touched {
			v := scratch[j]
			scratch[j] = nil
			if v.Sign() == 0 {
				continue
			}
			row.terms = append(row.terms, presTerm{j: j, a: v})
			pr.cnt[j]++
			pr.use[j] = append(pr.use[j], r)
		}
		pr.rows[r] = row
	}
	pr.origEmpty = make([]bool, nv)
	for j, n := range pr.cnt {
		pr.origEmpty[j] = n == 0
	}
	return pr
}

// fired reports whether any reduction was applied.
func (pr *presolver) fired() bool {
	return pr.rowsRemoved > 0 || pr.colsRemoved > 0 || len(pr.ops) > 0
}

// dropRow retires row r and releases its variables' use counts.
func (pr *presolver) dropRow(r int) {
	row := pr.rows[r]
	row.dead = true
	for _, t := range row.terms {
		pr.cnt[t.j]--
	}
	pr.rowsRemoved++
}

// removeTerm deletes variable j's term from row r (no rhs change).
func (pr *presolver) removeTerm(r, j int) {
	row := pr.rows[r]
	for i, t := range row.terms {
		if t.j == j {
			row.terms = append(row.terms[:i], row.terms[i+1:]...)
			pr.cnt[j]--
			return
		}
	}
}

// fix eliminates variable j at the known value v, substituting it out
// of every live row.
func (pr *presolver) fix(j int, v *big.Rat) {
	pr.elim[j] = true
	pr.colsRemoved++
	pr.ops = append(pr.ops, postOp{kind: opFix, j: j, v: rational.Clone(v)})
	if v.Sign() != 0 {
		tmp := new(big.Rat)
		for _, r := range pr.use[j] {
			row := pr.rows[r]
			if row.dead {
				continue
			}
			for _, t := range row.terms {
				if t.j == j {
					tmp.Mul(t.a, v)
					row.rhs.Sub(row.rhs, tmp)
					break
				}
			}
		}
	}
	for _, r := range pr.use[j] {
		if !pr.rows[r].dead {
			pr.removeTerm(r, j)
		}
	}
	pr.use[j] = nil
}

// shift rebases variable j as x = x' + d with x' ≥ 0 (the reduced
// problem keeps j's column; only right-hand sides move).
func (pr *presolver) shift(j int, d *big.Rat) {
	pr.ops = append(pr.ops, postOp{kind: opShift, j: j, v: rational.Clone(d)})
	tmp := new(big.Rat)
	for _, r := range pr.use[j] {
		row := pr.rows[r]
		if row.dead {
			continue
		}
		for _, t := range row.terms {
			if t.j == j {
				tmp.Mul(t.a, d)
				row.rhs.Sub(row.rhs, tmp)
				break
			}
		}
	}
	pr.free[j] = false
}

// snapshotFromRow records the opFromRow reconstruction for variable j
// out of row r (whose terms currently include j with coefficient a).
func (pr *presolver) snapshotFromRow(j int, row *presRow, a *big.Rat) {
	op := postOp{kind: opFromRow, j: j, rhs: rational.Clone(row.rhs), a: rational.Clone(a)}
	for _, t := range row.terms {
		if t.j != j {
			op.terms = append(op.terms, presTerm{j: t.j, a: rational.Clone(t.a)})
		}
	}
	pr.ops = append(pr.ops, op)
}

// run applies reductions to fixpoint. It returns Infeasible when the
// problem is proved infeasible and NoStatus otherwise ("keep going").
func (pr *presolver) run() Status {
	for {
		changed := false
		for r := range pr.rows {
			st, ch := pr.rowPass(r)
			if st == Infeasible {
				return Infeasible
			}
			changed = changed || ch
		}
		for j := range pr.elim {
			st, ch := pr.colPass(j)
			if st == Infeasible {
				return Infeasible
			}
			changed = changed || ch
		}
		if !changed {
			return NoStatus
		}
	}
}

// rowPass applies the row-local reductions to row r.
func (pr *presolver) rowPass(r int) (Status, bool) {
	row := pr.rows[r]
	if row.dead {
		return NoStatus, false
	}
	if len(row.terms) == 0 {
		// Empty row: 0 op rhs either always holds or never does.
		sgn := row.rhs.Sign()
		ok := false
		switch row.op {
		case LE:
			ok = sgn >= 0
		case GE:
			ok = sgn <= 0
		case EQ:
			ok = sgn == 0
		}
		if !ok {
			return Infeasible, false
		}
		pr.dropRow(r)
		return NoStatus, true
	}
	// Activity analysis over sign-restricted variables: with every
	// x ≥ 0, a row whose coefficients share a sign has a one-sided
	// activity range starting at 0. Free variables void the bounds.
	allPos, allNeg := true, true
	for _, t := range row.terms {
		if pr.free[t.j] {
			allPos, allNeg = false, false
			break
		}
		if t.a.Sign() > 0 {
			allNeg = false
		} else {
			allPos = false
		}
	}
	sgn := row.rhs.Sign()
	switch {
	case allPos && sgn < 0 && (row.op == LE || row.op == EQ):
		return Infeasible, false // activity ≥ 0 can never reach rhs < 0
	case allNeg && sgn > 0 && (row.op == GE || row.op == EQ):
		return Infeasible, false // activity ≤ 0 can never reach rhs > 0
	case allNeg && sgn >= 0 && row.op == LE,
		allPos && sgn <= 0 && row.op == GE:
		pr.dropRow(r) // non-binding: activity range satisfies the row outright
		return NoStatus, true
	case sgn == 0 && ((allPos && row.op != GE) || (allNeg && row.op != LE)):
		// Forcing row: activity must equal its own bound of 0, so every
		// participating variable is pinned there.
		fixv := make([]int, 0, len(row.terms))
		for _, t := range row.terms {
			fixv = append(fixv, t.j)
		}
		zero := rational.Zero()
		for _, j := range fixv {
			pr.fix(j, zero)
		}
		pr.dropRow(r)
		return NoStatus, true
	}
	if len(row.terms) != 1 {
		return NoStatus, false
	}
	// Row singleton: a·x op rhs is a bound (or a forced value) on x.
	j, a := row.terms[0].j, row.terms[0].a
	bound := rational.Div(row.rhs, a)
	op := row.op
	if a.Sign() < 0 {
		switch op { // dividing by a < 0 flips the inequality
		case LE:
			op = GE
		case GE:
			op = LE
		}
	}
	switch op {
	case EQ:
		if !pr.free[j] && bound.Sign() < 0 {
			return Infeasible, false
		}
		pr.dropRow(r)
		pr.fix(j, bound)
		return NoStatus, true
	case GE:
		if !pr.free[j] && bound.Sign() <= 0 {
			pr.dropRow(r) // implied by x ≥ 0
			return NoStatus, true
		}
		// Lower bound: rebase x = x' + bound, x' ≥ 0. Also turns a free
		// variable into a sign-restricted one.
		pr.dropRow(r)
		pr.shift(j, bound)
		return NoStatus, true
	case LE:
		if !pr.free[j] {
			switch bound.Sign() {
			case 0:
				pr.dropRow(r)
				pr.fix(j, bound)
				return NoStatus, true
			case -1:
				return Infeasible, false
			}
		}
		// A genuine upper bound needs the row; leave it in place.
	}
	return NoStatus, false
}

// colPass applies the column-local reductions to variable j.
func (pr *presolver) colPass(j int) (Status, bool) {
	if pr.elim[j] {
		return NoStatus, false
	}
	if pr.cnt[j] == 0 {
		// Empty column: unconstrained but for its sign. A cost that
		// rewards growth makes the LP unbounded *if* the rest is
		// feasible. A cost that punishes growth pins the variable at 0
		// in every optimum, so fixing preserves the optimal set. A zero
		// cost is a tie: a column that was empty *as modelled* is
		// unconstrained, so the canonical optimum (lex.go) minimizes it
		// to 0 and fixing it there is identity-safe — but a column
		// emptied by reductions (a shifted bound variable whose rows
		// were dropped, say) has no such pin, and fixing it may resolve
		// a tie differently from the canonical optimum.
		// The driver demotes such solves to the original problem.
		sgn := pr.cmin[j].Sign()
		if sgn < 0 || (pr.free[j] && sgn != 0) {
			pr.elim[j] = true
			pr.colsRemoved++
			pr.unboundedRay = true
			return NoStatus, true
		}
		if sgn == 0 && !pr.origEmpty[j] {
			pr.tieResolved = true
		}
		pr.fix(j, rational.Zero())
		return NoStatus, true
	}
	if pr.cnt[j] != 1 {
		return NoStatus, false
	}
	// Column singleton: find the single live row holding j.
	var row *presRow
	var a *big.Rat
	for _, r := range pr.use[j] {
		cand := pr.rows[r]
		if cand.dead {
			continue
		}
		for _, t := range cand.terms {
			if t.j == j {
				row, a = cand, t.a
				break
			}
		}
		if row != nil {
			break
		}
	}
	if row == nil || row.op != EQ || len(row.terms) < 2 {
		return NoStatus, false
	}
	switch {
	case pr.free[j]:
		// Free column singleton in an equation: the row determines
		// x_j = (rhs − Σ a_k x_k)/a_j outright, so both the variable and
		// the row leave the problem. Its cost folds onto the remaining
		// variables of the row (the constant term is dropped; the final
		// objective is recomputed over the original problem).
		pr.snapshotFromRow(j, row, a)
		if pr.cmin[j].Sign() != 0 {
			ratio := rational.Div(pr.cmin[j], a)
			tmp := new(big.Rat)
			for _, t := range row.terms {
				if t.j == j {
					continue
				}
				tmp.Mul(ratio, t.a)
				pr.cmin[t.j].Sub(pr.cmin[t.j], tmp)
			}
		}
		pr.elim[j] = true
		pr.colsRemoved++
		rr := -1
		for _, r := range pr.use[j] {
			if pr.rows[r] == row {
				rr = r
				break
			}
		}
		pr.use[j] = nil
		pr.removeTerm(rr, j) // keep counts consistent before the drop
		pr.dropRow(rr)
		return NoStatus, true
	case pr.cmin[j].Sign() == 0:
		// Implied slack: a zero-cost sign-restricted singleton in an
		// equation is exactly a slack variable. Dropping it relaxes the
		// equation to the corresponding inequality, and postsolve
		// recovers its value from the row's final activity.
		pr.snapshotFromRow(j, row, a)
		pr.elim[j] = true
		pr.colsRemoved++
		rr := -1
		for _, r := range pr.use[j] {
			if pr.rows[r] == row {
				rr = r
				break
			}
		}
		pr.use[j] = nil
		pr.removeTerm(rr, j)
		if a.Sign() > 0 {
			row.op = LE // a_j x_j = rhs − Σ' ≥ 0
		} else {
			row.op = GE
		}
		return NoStatus, true
	}
	return NoStatus, false
}

// reducedProblem builds the Problem over the surviving rows and
// variables. varMap[k] is the original index of reduced variable k.
// It must only be called when at least one variable survives.
func (pr *presolver) reducedProblem() (*Problem, []int) {
	red := NewProblem(Minimize)
	varMap := make([]int, 0, len(pr.elim))
	toRed := make([]int, len(pr.elim))
	for j := range pr.elim {
		if pr.elim[j] {
			toRed[j] = -1
			continue
		}
		var v Var
		if pr.free[j] {
			v = red.FreeVariable(pr.p.vars[j].name)
		} else {
			v = red.NewVariable(pr.p.vars[j].name)
		}
		red.SetObjectiveCoeff(v, pr.cmin[j])
		toRed[j] = int(v)
		varMap = append(varMap, j)
	}
	terms := make([]Term, 0, 16)
	for _, row := range pr.rows {
		if row.dead {
			continue
		}
		terms = terms[:0]
		for _, t := range row.terms {
			terms = append(terms, Term{Var: Var(toRed[t.j]), Coeff: t.a})
		}
		red.AddConstraint(terms, row.op, row.rhs)
	}
	return red, varMap
}

// postsolve reconstructs the original-variable assignment from the
// reduced solution (redX indexed by reduced variable, nil when no
// variable survived) by replaying the operation stack in reverse.
func (pr *presolver) postsolve(redX []*big.Rat, varMap []int) []*big.Rat {
	x := make([]*big.Rat, len(pr.elim))
	for k, j := range varMap {
		x[j] = rational.Clone(redX[k])
	}
	tmp := new(big.Rat)
	for i := len(pr.ops) - 1; i >= 0; i-- {
		op := pr.ops[i]
		switch op.kind {
		case opFix:
			x[op.j] = rational.Clone(op.v)
		case opShift:
			x[op.j].Add(x[op.j], op.v)
		case opFromRow:
			v := rational.Clone(op.rhs)
			for _, t := range op.terms {
				tmp.Mul(t.a, x[t.j])
				v.Sub(v, tmp)
			}
			x[op.j] = v.Quo(v, op.a)
		}
	}
	return x
}
