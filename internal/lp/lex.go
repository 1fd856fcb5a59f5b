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
// point from any optimal basis on the sparse LU of revised.go. Its
// face phases are solveRevised itself, with Bland's rule from the
// first pivot and a mask of banned columns, so the package has one
// exact pivot loop:
//
//  1. The sweep in which solveRevised found the optimum priced every
//     nonbasic column against the LP's own cost. A column with
//     z_j > 0 is zero at every optimal point, so banning it from
//     entering restricts all later pivoting to the optimal face.
//  2. For each structural column k in order: a nonbasic k already
//     sits at its minimum 0 and is banned; a basic k is minimized
//     over the current face by solveRevised with cost e_k, after which
//     every column with a positive reduced cost under e_k is banned —
//     which restricts the face to the points where y_k attains its
//     minimum.
//  3. Once no unbanned nonbasic column is left, the face is a single
//     point: the current basic solution.
package lp

import (
	"context"
	"errors"
	"math/big"
)

// errInvariant reports a state exact arithmetic rules out: a face
// phase of lexRefine that finds no minimum, a singular
// refactorization of a basis reached by exact pivots, or an unbounded
// phase 1. It marks a solver bug, not a property of the input.
var errInvariant = errors.New("lp: exact simplex invariant violated")

// canonicalOptimum pivots from a primal-feasible basis to an optimum
// of the LP's own cost and returns the canonical optimum: the vertex
// itself when the final sweep found every nonbasic z_j > 0, otherwise
// lexRefine's. basis, xB and lu are consumed.
func (s *standardForm) canonicalOptimum(ctx context.Context, basis []int, xB []hval, lu *sparseLU, h *hstats, opts *SolveOpts) (*Solution, error) {
	cost := make([]hval, len(s.columns())) // artificial columns cost 0
	for j, c := range s.c {
		cost[j] = hvRat(c)
	}
	z := make([]hval, s.ncols)
	st, tied, err := s.solveRevised(ctx, basis, xB, lu, h, opts, cost, pricing{window: s.ncols / 8, z: z})
	switch {
	case err != nil:
		return nil, err
	case st == Unbounded:
		return &Solution{Status: Unbounded}, nil
	case tied:
		return s.lexRefine(ctx, basis, xB, lu, h, opts, z)
	}
	return s.basicSolution(basis, xB), nil
}

// lexRefine returns the canonical (lexicographically smallest) optimal
// point, starting from the optimal basis whose factorization is lu,
// basic solution xB and final-sweep reduced costs z. basis, xB and z
// are consumed. Columns at index s.ncols and beyond are artificial
// unit columns (withArtificials): they stay basic at zero on their
// redundant rows and never enter. Pivots are counted in
// SolveStats.RevisedPivots (solveCold moves its own to ExactPivots).
func (s *standardForm) lexRefine(ctx context.Context, basis []int, xB []hval, lu *sparseLU, h *hstats, opts *SolveOpts, z []hval) (*Solution, error) {
	if opts.Stats != nil {
		opts.Stats.TiedOptima = true
	}
	basic := make([]bool, s.ncols)
	banned := make([]bool, s.ncols)
	// restrict bans every nonbasic column the last sweep priced above
	// zero and returns how many nonbasic columns are left unbanned: the
	// face's remaining freedom.
	restrict := func() (free int) {
		clear(basic)
		for _, j := range basis {
			if j < s.ncols {
				basic[j] = true
			}
		}
		for j, b := range basic {
			switch {
			case b || banned[j]:
			case z[j].Sign() > 0:
				banned[j] = true
			default:
				free++
			}
		}
		return free
	}
	// Step 1: restrict to the optimal face.
	free := restrict()
	// Step 2: fix each structural column at its minimum over the face.
	cost := make([]hval, len(s.columns()))
	for k := 0; k < s.structural && free > 0; k++ {
		if !basic[k] {
			// Nonbasic: at zero, its minimum. Fix it there.
			if !banned[k] {
				banned[k] = true
				free--
			}
			continue
		}
		cost[k] = hvRat(ratOne)
		st, _, err := s.solveRevised(ctx, basis, xB, lu, h, opts, cost, pricing{bland: true, banned: banned, z: z})
		cost[k] = hval{}
		if err != nil {
			return nil, err
		}
		if st != Optimal {
			return nil, errInvariant // y_k ≥ 0 bounds the face phase
		}
		// y_k is minimal over the face; keep only the points attaining it.
		free = restrict()
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

// price returns the reduced cost cj − y·A_j of column j: the kernel
// of every pricing sweep.
//
//dpvet:hotpath
func (s *standardForm) price(h *hstats, cj hval, j int, y []hval) hval {
	z := cj
	for _, e := range s.hcol(j) {
		if ye := y[e.idx]; !ye.IsZero() {
			z = h.fms(z, e.v, ye)
		}
	}
	return z
}
