package lp

import (
	"context"
	"math"

	"minimaxdp/internal/rational"
)

const floatEps = 1e-9

// perturbScale sets the anti-degeneracy right-hand-side perturbation
// of the float solve: row r is shifted by perturbScale·(r+1)/nrows,
// giving every row a distinct positive offset so ratio-test ties — the
// fuel of degenerate stalling, which at tailored n ≳ 20 burned
// six-figure pivot counts before hitting the cap — become strict
// comparisons. The offsets sit far above floatEps (so they actually
// break ties) and far below the problem data (so the located basis is
// a lexicographic-style basis of the true LP). Nothing numeric
// escapes: the basis is re-certified in exact arithmetic against the
// UNperturbed problem, and a basis the perturbation steered wrong
// simply fails certification and falls back.
const perturbScale = 1e-5

// floatOutcome classifies a float simplex run. Unlike the exact
// solver, the float solver can also give up: its ±1e-9 tolerances
// void Bland's termination guarantee, so the pivot loop carries an
// iteration cap.
type floatOutcome int

const (
	floatOptimal floatOutcome = iota
	floatUnbounded
	floatCapped
	floatCanceled // ctx ended between pivots
)

// floatTab is a dense float64 two-phase simplex tableau built from the
// standardForm. Its pivot rule is Dantzig's (most negative reduced
// cost, first wins ties) switching to Bland's after a run of
// degenerate pivots, with the leaving row chosen by minimum ratio and
// ties toward the smaller basis index. Nothing depends on it tracking
// an exact solver's pivot path: the float solve only proposes a basis,
// and byte identity comes from the exact certificate and the canonical
// optimum (lex.go). (A devex pricing experiment took *more* pivots on
// the tailored family than Dantzig does.)
//
// The tableau is stored column-major in one flat slab, so that a pivot
// updates each touched column with one sequential axpy (see pivot).
type floatTab struct {
	// cols[j] for j < total is column j; cols[total] is the right-hand
	// side and cols[total+1] the delta column: the image of the
	// anti-degeneracy RHS perturbation under the pivots so far. B⁻¹b
	// for the TRUE b is then cols[total] − cols[total+1], which is what
	// the post-optimal dual cleanup (dualCleanup) prices — without it
	// the candidate basis is optimal for the perturbed RHS but primal
	// infeasible for the real one, and every infeasible position costs
	// the crossover an exact dual-simplex pivot at big-rational prices.
	cols   [][]float64
	basis  []int
	z      []float64
	obj    float64
	total  int // columns incl. artificials
	ncols  int // columns excl. artificials (== standardForm.ncols)
	pivots int
	f      []float64 // pivot-column scratch, reused across pivots
}

// newFloatTab builds the phase-1 float tableau, seeding the basis
// from slack columns where initialBasis offers one and adding
// artificials elsewhere. Each right-hand side gets its
// anti-degeneracy offset (see perturbScale).
func (s *standardForm) newFloatTab() *floatTab {
	basisFromSlack := s.initialBasis()
	nart := 0
	for r := 0; r < s.nrows; r++ {
		if basisFromSlack[r] < 0 {
			nart++
		}
	}
	ft := &floatTab{
		total: s.ncols + nart,
		ncols: s.ncols,
		basis: make([]int, s.nrows),
		f:     make([]float64, s.nrows),
	}
	// One flat slab for all columns, the right-hand side and the delta
	// column included.
	width := ft.total + 2
	m := s.nrows
	slab := make([]float64, width*m)
	ft.cols = make([][]float64, width)
	for j := range ft.cols {
		ft.cols[j] = slab[j*m : (j+1)*m : (j+1)*m]
	}
	rhs := ft.cols[ft.total]
	artCol := s.ncols
	for r := 0; r < m; r++ {
		for _, e := range s.rows[r] {
			ft.cols[e.idx][r] = rational.Float(e.v)
		}
		off := perturbScale * float64(r+1) / float64(m)
		rhs[r] = rational.Float(s.b[r]) + off
		ft.cols[ft.total+1][r] = off
		if basisFromSlack[r] >= 0 {
			ft.basis[r] = basisFromSlack[r]
		} else {
			ft.cols[artCol][r] = 1
			ft.basis[r] = artCol
			artCol++
		}
	}
	return ft
}

// maxPivots bounds the total float pivots across both phases.
// Tolerances void Bland's anti-cycling guarantee, so unlike the exact
// solver the float one needs a cap; it is far above any pivot count a
// well-posed LP of this size produces.
func (ft *floatTab) maxPivots() int {
	return 5000 + 50*(len(ft.basis)+ft.total)
}

// floatSolve runs the two-phase dense float64 simplex on s's
// perturbed right-hand side, then the dual cleanup back to the true
// one. ok is false when the iteration cap was hit (the solve is then
// inconclusive); otherwise st is the float solver's verdict and ft
// holds the final tableau. Every pivot loop checks ctx before each
// pivot, so a canceled ctx ends the locate within one pivot and
// floatSolve returns ctx.Err().
func (s *standardForm) floatSolve(ctx context.Context) (st Status, ft *floatTab, ok bool, err error) {
	ft = s.newFloatTab()
	pivotCap := ft.maxPivots()

	// Phase 1: minimize the artificial sum.
	ft.z = make([]float64, ft.total)
	artCost := make([]float64, ft.total)
	for j := s.ncols; j < ft.total; j++ {
		artCost[j] = 1
	}
	ft.price(artCost)
	switch ft.iterate(ctx, nil, pivotCap) {
	case floatCanceled:
		return NoStatus, ft, false, ctx.Err()
	case floatCapped:
		return NoStatus, ft, false, nil
	case floatUnbounded:
		// Phase 1 is bounded below by 0; treat as inconclusive.
		return NoStatus, ft, false, nil
	}
	if math.Abs(ft.obj) > floatEps {
		return Infeasible, ft, true, nil
	}
	// Drive leftover artificials out of the basis where possible.
	for r := range ft.basis {
		if ft.basis[r] < s.ncols {
			continue
		}
		for j := 0; j < s.ncols; j++ {
			if math.Abs(ft.cols[j][r]) > floatEps {
				ft.pivot(r, j)
				break
			}
		}
	}

	// Artificials are dead past this point — phase 2 bans them from
	// entering, so their columns only cost elimination sweeps. Unless
	// one is stuck basic (a degenerate redundant row), drop them from
	// the column list: the right-hand side (and delta) columns move
	// down to follow the structural ones. No pivot choice changes —
	// banned columns were never consulted — so the pivot path, and
	// hence the final basis, is identical to the uncompacted tableau's.
	if ft.total > s.ncols {
		stuck := false
		for _, bi := range ft.basis {
			if bi >= s.ncols {
				stuck = true
				break
			}
		}
		if !stuck {
			ft.cols = append(ft.cols[:s.ncols], ft.cols[ft.total:]...)
			ft.total = s.ncols
		}
	}

	// Phase 2: the real cost vector, artificials banned.
	c := make([]float64, s.ncols)
	for j := 0; j < s.ncols; j++ {
		c[j] = rational.Float(s.c[j])
	}
	ft.price(c)
	banned := make([]bool, ft.total)
	for j := s.ncols; j < ft.total; j++ {
		banned[j] = true
	}
	switch ft.iterate(ctx, banned, pivotCap) {
	case floatCanceled:
		return NoStatus, ft, false, ctx.Err()
	case floatCapped:
		return NoStatus, ft, false, nil
	case floatUnbounded:
		return Unbounded, ft, true, nil
	}
	// The basis is optimal for the PERTURBED right-hand side; walk it
	// to one primal feasible for the true RHS with float dual pivots.
	// Best-effort: a basis the walk leaves infeasible still goes to the
	// crossover, which sends it to the cold fallback.
	ft.dualCleanup(ctx, banned, pivotCap)
	if err := ctx.Err(); err != nil {
		return NoStatus, ft, false, err
	}
	return Optimal, ft, true, nil
}

// price loads cost (columns past len(cost) cost 0) into the reduced
// costs z and subtracts cb·(row r) from z and the objective for every
// row r whose basic variable has a nonzero cost cb.
func (ft *floatTab) price(cost []float64) {
	clear(ft.z)
	copy(ft.z, cost)
	ft.obj = 0
	for r, bi := range ft.basis {
		cb := 0.0
		if bi < len(cost) {
			cb = cost[bi]
		}
		if cb == 0 {
			continue
		}
		for j := 0; j < ft.total; j++ {
			ft.z[j] -= cb * ft.cols[j][r]
		}
		ft.obj -= cb * ft.cols[ft.total][r]
	}
}

// dualCleanup runs dual-simplex pivots against the de-perturbed
// right-hand side (cols[total] − cols[total+1], see floatTab.cols)
// until it is nonnegative within tolerance: leaving row most negative,
// entering column by the dual ratio test min z_j/(−a_rj) over
// a_rj < 0, ties toward the smaller column index. Returns false when a
// row cannot be repaired (left for the exact side to adjudicate), the
// pivot cap is hit or ctx ends.
func (ft *floatTab) dualCleanup(ctx context.Context, banned []bool, maxPivots int) bool {
	for ft.pivots < maxPivots {
		if ctx.Err() != nil {
			return false
		}
		rhs, delta := ft.cols[ft.total], ft.cols[ft.total+1]
		leave := -1
		worst := -floatEps
		for r := range rhs {
			if tv := rhs[r] - delta[r]; tv < worst {
				worst = tv
				leave = r
			}
		}
		if leave < 0 {
			return true
		}
		enter := -1
		best := math.Inf(1)
		for j := 0; j < ft.total; j++ {
			if banned != nil && j < len(banned) && banned[j] {
				continue
			}
			a := ft.cols[j][leave]
			if a >= -floatEps {
				continue
			}
			ratio := ft.z[j] / -a
			if enter < 0 || ratio < best-floatEps {
				enter = j
				best = ratio
			}
		}
		if enter < 0 {
			return false
		}
		ft.pivot(leave, enter)
	}
	return false
}

// floatCandidateBasis runs the float simplex and returns its final
// basis (one column index per row) as the warm-start candidate. ok is
// false whenever the run is unusable for crossover: iteration cap
// hit, a non-Optimal verdict, or an artificial column stuck in the
// basis. Float Infeasible/Unbounded claims are deliberately never
// trusted — tolerance could fabricate either — so those also report
// ok=false and the caller falls back to the exact two-phase solve. A
// ctx that ends mid-locate returns ctx.Err().
func (s *standardForm) floatCandidateBasis(ctx context.Context) (basis []int, pivots int, ok bool, err error) {
	st, ft, ok, err := s.floatSolve(ctx)
	pivots = ft.pivots
	if err != nil || !ok || st != Optimal {
		return nil, pivots, false, err
	}
	for _, bi := range ft.basis {
		if bi >= s.ncols {
			return nil, pivots, false, nil
		}
	}
	return ft.basis, pivots, true, nil
}

// iterate pivots until optimal, unbounded, capped or canceled:
// Dantzig entering column (most negative reduced cost, first wins
// ties) switching to Bland's rule after stallLimit degenerate pivots,
// leaving row by minimum ratio with ties broken toward the smaller
// basis index. ctx is checked before every pivot.
func (ft *floatTab) iterate(ctx context.Context, banned []bool, maxPivots int) floatOutcome {
	const stallLimit = 12 // degenerate pivots tolerated before engaging Bland
	stalled := 0
	lastObj := ft.obj
	for {
		if ft.pivots >= maxPivots {
			return floatCapped
		}
		if ctx.Err() != nil {
			return floatCanceled
		}
		useBland := stalled >= stallLimit
		enter := -1
		best := 0.0
		for j := 0; j < ft.total; j++ {
			if banned != nil && banned[j] {
				continue
			}
			if ft.z[j] >= -floatEps {
				continue
			}
			if useBland {
				enter = j
				break // Bland: smallest eligible index
			}
			if enter < 0 || ft.z[j] < best {
				enter = j
				best = ft.z[j]
			}
		}
		if enter < 0 {
			return floatOptimal
		}
		leave := -1
		bestRatio := math.Inf(1)
		rhs := ft.cols[ft.total]
		for r, arj := range ft.cols[enter] {
			if arj <= floatEps {
				continue
			}
			ratio := rhs[r] / arj
			if ratio < bestRatio-floatEps ||
				(math.Abs(ratio-bestRatio) <= floatEps && (leave < 0 || ft.basis[r] < ft.basis[leave])) {
				leave = r
				bestRatio = ratio
			}
		}
		if leave < 0 {
			return floatUnbounded
		}
		ft.pivot(leave, enter)
		if math.Abs(ft.obj-lastObj) <= floatEps {
			stalled++
		} else {
			stalled = 0
			lastObj = ft.obj
		}
	}
}

// pivot pivots on (row, col) column by column. The pivot column is
// copied once into the scratch f with f[row] = 0; then every column j
// whose pivot-row entry a is nonzero gets p = a·(1/pivot), the
// contiguous update col_j[r] −= f[r]·p, and col_j[row] = p. A column
// whose pivot-row entry is zero is left as it is (x − f·0 is x). Each
// new entry depends only on its old value, f and p, never on the order
// of the updates, so the pivot path does not depend on the storage
// layout; TestFloatLocatePinned holds it to a golden. p must stay
// a·(1/pivot): a/pivot rounds differently. The reduced costs and the
// objective follow from the same p.
func (ft *floatTab) pivot(row, col int) {
	ft.pivots++
	f := ft.f
	copy(f, ft.cols[col])
	inv := 1 / f[row]
	f[row] = 0
	zf := ft.z[col]
	for j, cj := range ft.cols {
		a := cj[row]
		if a == 0 {
			continue
		}
		p := a * inv
		axpy(cj, f, p)
		cj[row] = p
		if zf != 0 {
			if j < ft.total {
				ft.z[j] -= zf * p
			} else if j == ft.total {
				ft.obj -= zf * p
			}
			// j == ft.total+1 is the perturbation-delta column: it has
			// no reduced cost or objective contribution.
		}
	}
	ft.basis[row] = col
}

// axpy computes y[r] −= x[r]·a over len(y) entries, unrolled four
// ways. Serial on purpose: splitting pivot's columns across two
// goroutines bought no wall time at n=16 and spent a second core
// (DESIGN §10).
func axpy(y, x []float64, a float64) {
	x = x[:len(y)]
	for len(y) >= 4 && len(x) >= 4 {
		y[0] -= x[0] * a
		y[1] -= x[1] * a
		y[2] -= x[2] * a
		y[3] -= x[3] * a
		y, x = y[4:], x[4:]
	}
	for i := range y {
		y[i] -= x[i] * a
	}
}
