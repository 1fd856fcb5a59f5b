// Reading a starting basis off a known point.
//
// A caller that already holds an optimal point does not need the
// float locate to find a basis: the point says which columns are
// basic. The tailored LP is the case that matters. By the paper's
// Theorem 1, x* = G·T* (the geometric mechanism composed with the
// consumer's optimal interaction) is optimal for it, and the
// interaction LP that yields T* is a small fraction of its size
// (consumer.OptimalMechanismOpts). pointBasis reads the basis off
// such a point:
//
//  1. The support: every structural column with a nonzero value, and
//     the slack (or surplus) of every row the point leaves loose.
//  2. The padding: k support columns need k pivot rows among the
//     tight rows, and every other tight row contributes its slack. An
//     exact rank-revealing elimination over the tight rows of the
//     support columns picks the k rows, equality rows first, since
//     they have no slack to pad with.
//
// Nothing about the point is trusted. The basis goes through the same
// exact ladder as a float-located one (crossover in warmstart.go), so
// the sparse LU, the certificate and the canonical refinement decide
// the answer. A support of more than m columns (the point is not a
// vertex), dependent support columns, or an equality row the support
// cannot cover make pointBasis report ok=false, and the float locate
// runs instead.
package lp

import (
	"math/big"
	"sort"

	"minimaxdp/internal/rational"
)

// pointBasis reads a candidate basis off the point x, indexed by Var.
// ok=false means x yields no square basis: wrong length, a nil entry,
// more than m nonzero columns, or a support that no choice of tight
// slacks completes to a nonsingular basis. The elimination's kernel
// ops count in stats.
func (s *standardForm) pointBasis(x []*big.Rat, stats *SolveStats) (basis []int, ok bool) {
	if len(x) != len(s.p.vars) {
		return nil, false
	}
	var h hstats
	defer h.fold(stats)
	m := s.nrows
	// The point's structural column values; a free variable's negative
	// value goes to its negative part.
	val := make([]hval, s.structural)
	for i, v := range x {
		if v == nil {
			return nil, false
		}
		switch {
		case v.Sign() < 0 && s.colNeg[i] >= 0:
			val[s.colNeg[i]] = hvRat(rational.Neg(v))
		case v.Sign() != 0:
			val[s.colPos[i]] = hvRat(v)
		}
	}
	basis = make([]int, 0, m)
	pos := make([]int32, s.structural) // structural column -> support position, or -1
	for j, v := range val {
		pos[j] = -1
		if !v.IsZero() {
			pos[j] = int32(len(basis))
			basis = append(basis, j)
		}
	}
	k := len(basis)
	// A row is loose when its residual b − A·x is nonzero and it has a
	// slack or surplus column (the last entry of its sparse row) to
	// absorb it. Every other row is tight.
	slackOf := make([]int, m)
	tight := make([]int, 0, m)
	for r, row := range s.rows {
		res := hvRat(s.b[r])
		slackOf[r] = -1
		for _, e := range row {
			if e.idx >= s.structural {
				slackOf[r] = e.idx
				break
			}
			if !val[e.idx].IsZero() {
				res = h.fms(res, hvRat(e.v), val[e.idx])
			}
		}
		if slackOf[r] >= 0 && !res.IsZero() {
			basis = append(basis, slackOf[r])
		} else {
			tight = append(tight, r)
		}
	}
	if len(basis) > m {
		return nil, false
	}
	chosen, ok := s.pivotRows(tight, slackOf, pos, k, &h)
	if !ok {
		return nil, false
	}
	for _, r := range tight {
		if chosen[r] {
			continue
		}
		if slackOf[r] < 0 {
			return nil, false // an equality row the support leaves uncovered
		}
		basis = append(basis, slackOf[r])
	}
	return basis, true
}

// pivotRows picks k tight rows whose restriction to the k support
// columns (pos maps a structural column to its support position) is
// nonsingular, by exact Gaussian elimination one row at a time:
// equality rows first, then the sparsest rows. A row that reduces to
// zero against the rows picked so far is dependent on them and is
// skipped. Since the rows independent of a set form a matroid, taking
// the equality rows first finds a choice that covers them whenever one
// exists. Each picked row pivots on its remaining column held by the
// fewest tight rows, which keeps the fill low. ok=false reports a
// dependent equality row or support columns of rank below k.
func (s *standardForm) pivotRows(tight, slackOf []int, pos []int32, k int, h *hstats) (chosen []bool, ok bool) {
	type entry struct {
		col int32
		v   hval
	}
	rowEntries := make([][]entry, s.nrows)
	colCount := make([]int, k)
	for _, r := range tight {
		for _, e := range s.rows[r] {
			if e.idx < s.structural && pos[e.idx] >= 0 {
				rowEntries[r] = append(rowEntries[r], entry{pos[e.idx], hvRat(e.v)})
				colCount[pos[e.idx]]++
			}
		}
	}
	order := append([]int(nil), tight...)
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := order[a], order[b]
		if ea, eb := slackOf[ra] < 0, slackOf[rb] < 0; ea != eb {
			return ea
		}
		return len(rowEntries[ra]) < len(rowEntries[rb])
	})

	// A picked row, reduced against every row picked before it: zero
	// on their pivot columns, with its own pivot entry kept apart.
	type pivotRow struct {
		col  int32
		piv  hval
		rest []entry
	}
	pivots := make([]pivotRow, 0, k)
	chosen = make([]bool, s.nrows)
	v := make([]hval, k) // dense accumulator for the row being reduced
	inNZ := make([]bool, k)
	nz := make([]int32, 0, k)
	for _, r := range order {
		if len(pivots) == k {
			break
		}
		for _, e := range rowEntries[r] {
			v[e.col] = e.v
			inNZ[e.col] = true
			nz = append(nz, e.col)
		}
		// Reduce in pick order: row p is zero on the pivot columns of
		// the rows picked before it, so an eliminated column is never
		// refilled.
		for _, p := range pivots {
			a := v[p.col]
			if a.IsZero() {
				continue
			}
			f := h.quo(a, p.piv)
			for _, e := range p.rest {
				if !inNZ[e.col] {
					inNZ[e.col] = true
					nz = append(nz, e.col)
				}
				v[e.col] = h.fms(v[e.col], f, e.v)
			}
			v[p.col] = hval{}
		}
		best := int32(-1)
		for _, c := range nz {
			if !v[c].IsZero() && (best < 0 || colCount[c] < colCount[best] ||
				(colCount[c] == colCount[best] && c < best)) {
				best = c
			}
		}
		if best >= 0 {
			pr := pivotRow{col: best, piv: v[best]}
			for _, c := range nz {
				if c != best && !v[c].IsZero() {
					pr.rest = append(pr.rest, entry{c, v[c]})
				}
			}
			pivots = append(pivots, pr)
			chosen[r] = true
		} else if slackOf[r] < 0 {
			return nil, false // a dependent equality row
		}
		for _, c := range nz {
			v[c] = hval{}
			inNZ[c] = false
		}
		nz = nz[:0]
	}
	return chosen, len(pivots) == k
}
