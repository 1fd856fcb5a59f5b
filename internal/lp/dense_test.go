package lp

import (
	"math/big"

	"minimaxdp/internal/rational"
)

// The dense test oracle: a plain two-phase simplex over a full big.Rat
// tableau. It shares only the standard-form construction with the
// production solver (newStandardForm, and initialBasis and
// extractFromCols on it) — no LU, no eta file, no hval tiers — so
// agreement between the two is evidence about both.

// denseTableau is a simplex dictionary: rows of [A | b] with basis
// indices, a reduced-cost row z and the current objective value
// (minimization sense, negated: obj = −c_B·x_B).
type denseTableau struct {
	rows  [][]*big.Rat // nrows × (ncols+1); the last entry is the rhs
	basis []int
	z     []*big.Rat
	obj   *big.Rat
	ncols int // every column, artificials included
	art   int // first artificial column
}

// denseSolve runs the two-phase method on s. On Optimal it returns
// the final phase-2 tableau.
func denseSolve(s *standardForm) (Status, *denseTableau) {
	t := &denseTableau{art: s.ncols, ncols: s.ncols, basis: s.initialBasis()}
	for _, j := range t.basis {
		if j < 0 {
			t.ncols++
		}
	}
	artCol := s.ncols
	for r := 0; r < s.nrows; r++ {
		row := rational.Vector(t.ncols + 1)
		for _, e := range s.rows[r] {
			row[e.idx].Set(e.v)
		}
		row[t.ncols].Set(s.b[r])
		if t.basis[r] < 0 {
			row[artCol].SetInt64(1)
			t.basis[r] = artCol
			artCol++
		}
		t.rows = append(t.rows, row)
	}
	// Phase 1: minimize the sum of the artificials.
	phase1 := rational.Vector(t.ncols)
	for j := t.art; j < t.ncols; j++ {
		phase1[j].SetInt64(1)
	}
	t.price(phase1)
	t.iterate(nil)
	if t.obj.Sign() != 0 {
		return Infeasible, nil
	}
	// Drive the artificials left basic at zero out of the basis; on a
	// redundant row one stays, pinned at zero.
	for r := range t.rows {
		if t.basis[r] < t.art {
			continue
		}
		for j := 0; j < t.art; j++ {
			if t.rows[r][j].Sign() != 0 {
				t.pivot(r, j)
				break
			}
		}
	}
	// Phase 2: the LP's own cost, artificials banned from entering.
	t.price(s.c)
	banned := make([]bool, t.ncols)
	for j := t.art; j < t.ncols; j++ {
		banned[j] = true
	}
	if !t.iterate(banned) {
		return Unbounded, nil
	}
	return Optimal, t
}

// price sets z and obj for cost c (missing trailing entries cost 0):
// z_j = c_j − Σ_r c_B(r)·a_rj and obj = −Σ_r c_B(r)·b_r.
func (t *denseTableau) price(c []*big.Rat) {
	cost := func(j int) *big.Rat {
		if j < len(c) {
			return c[j]
		}
		return new(big.Rat)
	}
	t.z = rational.Vector(t.ncols)
	for j := range t.z {
		t.z[j].Set(cost(j))
	}
	t.obj = new(big.Rat)
	tmp := new(big.Rat)
	for r, row := range t.rows {
		cb := cost(t.basis[r])
		if cb.Sign() == 0 {
			continue
		}
		for j := range t.z {
			t.z[j].Sub(t.z[j], tmp.Mul(cb, row[j]))
		}
		t.obj.Sub(t.obj, tmp.Mul(cb, row[t.ncols]))
	}
}

// iterate pivots until optimal (true) or unbounded (false): Dantzig's
// rule, switching to Bland's once the objective has stalled for a
// while so the method cannot cycle.
func (t *denseTableau) iterate(banned []bool) bool {
	const stallLimit = 12
	stalled := 0
	lastObj := new(big.Rat).Set(t.obj)
	for {
		enter := -1
		for j := range t.z {
			if (banned != nil && banned[j]) || t.z[j].Sign() >= 0 {
				continue
			}
			if stalled >= stallLimit {
				enter = j
				break
			}
			if enter < 0 || t.z[j].Cmp(t.z[enter]) < 0 {
				enter = j
			}
		}
		if enter < 0 {
			return true
		}
		leave := -1
		var best *big.Rat
		for r, row := range t.rows {
			if row[enter].Sign() <= 0 {
				continue
			}
			ratio := new(big.Rat).Quo(row[t.ncols], row[enter])
			if leave < 0 || ratio.Cmp(best) < 0 ||
				(ratio.Cmp(best) == 0 && t.basis[r] < t.basis[leave]) {
				leave, best = r, ratio
			}
		}
		if leave < 0 {
			return false
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

// pivot makes col basic in row. Only the pivot row's nonzero columns
// take part in the elimination.
func (t *denseTableau) pivot(row, col int) {
	pr := t.rows[row]
	inv := new(big.Rat).Inv(pr[col])
	var nz []int
	for j, v := range pr {
		if v.Sign() != 0 {
			v.Mul(v, inv)
			nz = append(nz, j)
		}
	}
	tmp := new(big.Rat)
	eliminate := func(target []*big.Rat) {
		f := new(big.Rat).Set(target[col])
		if f.Sign() == 0 {
			return
		}
		for _, j := range nz {
			target[j].Sub(target[j], tmp.Mul(f, pr[j]))
		}
	}
	for r, tr := range t.rows {
		if r != row {
			eliminate(tr)
		}
	}
	// The z row has no rhs cell; the objective plays that part.
	eliminate(append(t.z, t.obj))
	t.basis[row] = col
}

// solution reads the basic solution off an optimal tableau.
func (t *denseTableau) solution(s *standardForm) *Solution {
	colVal := rational.Vector(t.ncols)
	for r, j := range t.basis {
		colVal[j].Set(t.rows[r][t.ncols])
	}
	return s.solution(s.extractFromCols(colVal))
}

// strictlyOptimal reports whether every nonbasic structural or slack
// column has a strictly positive reduced cost: the certificate that
// the optimum is unique.
func (t *denseTableau) strictlyOptimal() bool {
	inBasis := make([]bool, t.ncols)
	for _, j := range t.basis {
		inBasis[j] = true
	}
	for j := 0; j < t.art; j++ {
		if !inBasis[j] && t.z[j].Sign() == 0 {
			return false
		}
	}
	return true
}
