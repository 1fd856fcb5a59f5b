// The canonical optimum: lexicographic refinement over the optimal
// face.
//
// An LP with a tied optimum (some nonbasic reduced cost exactly zero)
// has a whole face of optimal points, and which vertex a simplex
// method stops at depends on its pivot path. The package does not let
// that choice leak into results: every Optimal solution is the
// lexicographically smallest optimal point over the standard-form
// structural columns, taken in Var order (a free variable's positive
// part before its negative part). That point is unique by
// construction — the slack columns are determined by the structural
// ones — so every solve path (warm-start hit, primal resume, the cold
// two-phase solve) returns the same bytes because
// there is only one answer, not because the paths share a pivot
// sequence.
//
// A strictly dual non-degenerate basis (every nonbasic z_j > 0)
// certifies a unique optimum, which is trivially the canonical one.
// Everything else goes through lexRefine, which reaches the canonical
// point from any optimal basis on the sparse LU of revised.go:
//
//  1. Price the nonbasic columns against the LP's own cost. A column
//     with z_j > 0 is zero at every optimal point, so banning it from
//     entering restricts all later pivoting to the optimal face.
//  2. For each structural column k in order: a nonbasic k already
//     sits at its minimum 0 and is banned; a basic k is minimized
//     over the current face by a primal simplex with cost e_k and
//     Bland's rule, after which every column with a positive reduced
//     cost under e_k is banned — which restricts the face to the
//     points where y_k attains its minimum.
//  3. Once no unbanned nonbasic column is left, the face is a single
//     point: the current basic solution.
package lp

import (
	"context"
	"errors"
	"math/big"

	"minimaxdp/internal/rational"
)

// errInvariant reports a state exact arithmetic rules out: a basis
// handed to lexRefine that is not optimal, a pricing row that
// disagrees with the factorization, a singular refactorization of a
// basis reached by exact pivots, or an unbounded phase 1. It marks a
// solver bug, not a property of the input.
var errInvariant = errors.New("lp: exact simplex invariant violated")

// lexRefine returns the canonical (lexicographically smallest) optimal
// point, starting from the optimal basis whose factorization is lu
// and basic solution xB. basis and xB are consumed. Columns at index
// s.ncols and beyond are artificial unit columns (withArtificials):
// they stay basic at zero on their redundant rows and never enter.
// Pivots are counted in SolveStats.RevisedPivots (solveCold moves its
// own to ExactPivots).
func (s *standardForm) lexRefine(ctx context.Context, basis []int, xB []hval, lu *sparseLU, h *hstats, opts *SolveOpts) (*Solution, error) {
	if opts.Stats != nil {
		opts.Stats.TiedOptima = true
	}
	m := s.nrows
	pos := make([]int, len(s.columns())) // column -> basis position, or -1
	for j := range pos {
		pos[j] = -1
	}
	for k, j := range basis {
		pos[j] = k
	}
	// Step 1: restrict to the optimal face.
	cB := make([]hval, m)
	for k, j := range basis {
		if j < s.ncols {
			cB[k] = hvRat(s.c[j])
		}
	}
	y := lu.solveTranspose(cB)
	banned := make([]bool, s.ncols)
	free := 0 // unbanned nonbasic columns: the face's remaining freedom
	for j := 0; j < s.ncols; j++ {
		if pos[j] >= 0 {
			continue
		}
		switch s.price(h, hvRat(s.c[j]), j, y).Sign() {
		case -1:
			return nil, errInvariant
		case 0:
			free++
		default:
			banned[j] = true
		}
	}
	// Step 2: fix each structural column at its minimum over the face.
	one := hvRat(rational.One())
	ep := make([]hval, m)
	z := make([]hval, s.ncols)
	for k := 0; k < s.structural && free > 0; k++ {
		for {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			p := pos[k]
			if p < 0 {
				// Nonbasic: at zero, its minimum. Fix it there.
				if !banned[k] {
					banned[k] = true
					free--
				}
				break
			}
			// Under cost e_k the dual vector is row p of B⁻¹, and the
			// reduced cost of a nonbasic j is z_j = −(B⁻¹A_j)_p.
			for i := range ep {
				ep[i] = hval{}
			}
			ep[p] = one
			beta := lu.solveTranspose(ep)
			enter := -1
			for j := 0; j < s.ncols; j++ {
				if pos[j] >= 0 || banned[j] {
					continue
				}
				z[j] = s.price(h, hval{}, j, beta)
				if z[j].Sign() < 0 {
					enter = j // Bland: smallest eligible index
					break
				}
			}
			if enter < 0 {
				// y_k is minimal over the face; keep only the points
				// attaining it.
				for j := 0; j < s.ncols; j++ {
					if pos[j] < 0 && !banned[j] && z[j].Sign() > 0 {
						banned[j] = true
						free--
					}
				}
				break
			}
			w := lu.ftran(s.hcol(enter))
			if w[p].Sign() <= 0 {
				return nil, errInvariant // z_enter = −w_p must be negative
			}
			// Ratio test, ties toward the smaller basic column (Bland).
			leave := -1
			var bestRatio hval
			for i := 0; i < m; i++ {
				if w[i].Sign() <= 0 {
					continue
				}
				ratio := h.quo(xB[i], w[i])
				if leave < 0 || ratio.Cmp(bestRatio) < 0 ||
					(ratio.Cmp(bestRatio) == 0 && basis[i] < basis[leave]) {
					leave, bestRatio = i, ratio
				}
			}
			if !bestRatio.IsZero() {
				for i := 0; i < m; i++ {
					if i != leave && !w[i].IsZero() {
						xB[i] = h.fms(xB[i], w[i], bestRatio)
					}
				}
			}
			xB[leave] = bestRatio
			out := basis[leave]
			pos[out] = -1
			if out < s.ncols {
				free++ // leaving columns are never banned
			}
			pos[enter] = leave
			free--
			if err := s.commitPivot(basis, xB, lu, leave, enter, w, h, opts); err != nil {
				return nil, err
			}
		}
	}
	return s.basicSolution(basis, xB), nil
}

// basicSolution maps a basic solution back to an Optimal Solution over
// the original variables. Artificial basics (always zero) are skipped.
func (s *standardForm) basicSolution(basis []int, xB []hval) *Solution {
	colVal := make([]*big.Rat, s.ncols)
	for j := range colVal {
		colVal[j] = ratZero
	}
	for k, j := range basis {
		if j < s.ncols {
			colVal[j] = xB[k].Rat()
		}
	}
	return s.solution(s.extractFromCols(colVal))
}

// hcol returns column j as hval terms, converting it on first use and
// caching it for the rest of the solve.
func (s *standardForm) hcol(j int) []hTerm {
	cols := s.columns()
	if len(s.hcols) < len(cols) {
		s.hcols = append(s.hcols, make([][]hTerm, len(cols)-len(s.hcols))...)
	}
	if s.hcols[j] == nil {
		hc := make([]hTerm, len(cols[j]))
		for n, e := range cols[j] {
			hc[n] = hTerm{idx: int32(e.idx), v: hvRat(e.v)}
		}
		s.hcols[j] = hc
	}
	return s.hcols[j]
}

// price returns the reduced cost cj − y·A_j of column j.
func (s *standardForm) price(h *hstats, cj hval, j int, y []hval) hval {
	z := cj
	for _, e := range s.hcol(j) {
		if ye := y[e.idx]; !ye.IsZero() {
			z = h.fms(z, e.v, ye)
		}
	}
	return z
}
