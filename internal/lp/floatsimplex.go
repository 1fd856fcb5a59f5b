package lp

import (
	"errors"
	"math"
	"runtime"
	"sync"

	"minimaxdp/internal/rational"
)

// FloatSolution is the result of SolveFloat.
type FloatSolution struct {
	Status    Status
	Objective float64
	X         []float64
}

const floatEps = 1e-9

// perturbScale sets the anti-degeneracy right-hand-side perturbation
// used by the warm-start candidate solve (floatCandidateBasis): row r
// is shifted by perturbScale·(r+1)/nrows, giving every row a distinct
// positive offset so ratio-test ties — the fuel of degenerate
// stalling, which at tailored n ≳ 20 burned six-figure pivot counts
// before hitting the cap — become strict comparisons. The offsets sit
// far above floatEps (so they actually break ties) and far below the
// problem data (so the located basis is a lexicographic-style basis
// of the true LP). Nothing numeric escapes: the basis is re-certified
// in exact arithmetic against the UNperturbed problem, and a basis
// the perturbation steered wrong simply fails certification and falls
// back. SolveFloat stays unperturbed — its objective values are
// compared against the exact solver at 1e-9 in the ablation tests.
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
type floatTab struct {
	rows   [][]float64
	basis  []int
	z      []float64
	obj    float64
	total  int // columns incl. artificials
	ncols  int // columns excl. artificials (== standardForm.ncols)
	pivots int
	nz     []int     // pooled pivot-row nonzero list, reused across pivots
	nzv    []float64 // pivot-row values at nz, gathered for sequential reads
	// delta reports that each row carries one extra trailing column (at
	// index total+1) holding the image of the anti-degeneracy RHS
	// perturbation under the pivots so far. B⁻¹b for the TRUE b is then
	// row[total] − row[total+1], which is what the post-optimal dual
	// cleanup (dualCleanup) prices — without it the candidate basis is
	// optimal for the perturbed RHS but primal infeasible for the real
	// one, and every infeasible position costs the crossover an exact
	// dual-simplex pivot at big-rational prices.
	delta bool
}

// newFloatTab builds the phase-1 float tableau, seeding the basis
// from slack columns where initialBasis offers one and adding
// artificials elsewhere. With perturb set, each right-hand side gets
// its anti-degeneracy offset (see perturbScale).
func (s *standardForm) newFloatTab(perturb bool) *floatTab {
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
		rows:  make([][]float64, s.nrows),
		delta: perturb,
	}
	// One flat slab for all rows: fewer allocations and sequential
	// row-to-row memory, which the elimination loops below stream over.
	// Perturbed tableaus get one extra trailing column per row carrying
	// the perturbation's image (floatTab.delta).
	width := ft.total + 1
	if perturb {
		width++
	}
	slab := make([]float64, s.nrows*width)
	artCol := s.ncols
	for r := 0; r < s.nrows; r++ {
		row := slab[r*width : (r+1)*width : (r+1)*width]
		for _, e := range s.rows[r] {
			row[e.idx] = rational.Float(e.v)
		}
		row[ft.total] = rational.Float(s.b[r])
		if perturb {
			off := perturbScale * float64(r+1) / float64(s.nrows)
			row[ft.total] += off
			row[ft.total+1] = off
		}
		if basisFromSlack[r] >= 0 {
			ft.basis[r] = basisFromSlack[r]
		} else {
			row[artCol] = 1
			ft.basis[r] = artCol
			artCol++
		}
		ft.rows[r] = row
	}
	return ft
}

// maxPivots bounds the total float pivots across both phases.
// Tolerances void Bland's anti-cycling guarantee, so unlike the exact
// solver the float one needs a cap; it is far above any pivot count a
// well-posed LP of this size produces.
func (ft *floatTab) maxPivots() int {
	return 5000 + 50*(len(ft.rows)+ft.total)
}

// floatSolve runs the two-phase dense float64 simplex on s. ok is
// false when the iteration cap was hit (the solve is then
// inconclusive); otherwise st is the float solver's verdict and ft
// holds the final tableau.
func (s *standardForm) floatSolve(perturb bool) (st Status, ft *floatTab, ok bool) {
	ft = s.newFloatTab(perturb)
	pivotCap := ft.maxPivots()

	// Phase 1: minimize the artificial sum.
	ft.z = make([]float64, ft.total)
	for j := s.ncols; j < ft.total; j++ {
		ft.z[j] = 1
	}
	ft.obj = 0
	for r := range ft.rows {
		if ft.basis[r] >= s.ncols {
			for j := 0; j < ft.total; j++ {
				ft.z[j] -= ft.rows[r][j]
			}
			ft.obj -= ft.rows[r][ft.total]
		}
	}
	switch ft.iterate(nil, pivotCap) {
	case floatCapped:
		return NoStatus, ft, false
	case floatUnbounded:
		// Phase 1 is bounded below by 0; treat as inconclusive.
		return NoStatus, ft, false
	}
	if math.Abs(ft.obj) > floatEps {
		return Infeasible, ft, true
	}
	// Drive leftover artificials out of the basis where possible.
	for r := range ft.rows {
		if ft.basis[r] < s.ncols {
			continue
		}
		for j := 0; j < s.ncols; j++ {
			if math.Abs(ft.rows[r][j]) > floatEps {
				ft.pivot(r, j)
				break
			}
		}
	}

	// Artificials are dead past this point — phase 2 bans them from
	// entering, so their columns only cost elimination sweeps. Unless
	// one is stuck basic (a degenerate redundant row), chop them off:
	// the right-hand side moves down into the first artificial slot and
	// every row narrows to the structural columns. No pivot choice
	// changes — banned columns were never consulted — so the pivot
	// path, and hence the final basis, is identical to the uncompacted
	// tableau's.
	if ft.total > s.ncols {
		stuck := false
		for _, bi := range ft.basis {
			if bi >= s.ncols {
				stuck = true
				break
			}
		}
		if !stuck {
			for r := range ft.rows {
				row := ft.rows[r]
				row[s.ncols] = row[ft.total]
				if ft.delta {
					row[s.ncols+1] = row[ft.total+1]
					ft.rows[r] = row[:s.ncols+2]
				} else {
					ft.rows[r] = row[:s.ncols+1]
				}
			}
			ft.total = s.ncols
		}
	}

	// Phase 2: the real cost vector, artificials banned.
	c := make([]float64, s.ncols)
	for j := 0; j < s.ncols; j++ {
		c[j] = rational.Float(s.c[j])
	}
	for j := range ft.z {
		ft.z[j] = 0
	}
	copy(ft.z, c)
	ft.obj = 0
	for r := range ft.rows {
		bi := ft.basis[r]
		cb := 0.0
		if bi < s.ncols {
			cb = c[bi]
		}
		if cb == 0 {
			continue
		}
		for j := 0; j < ft.total; j++ {
			ft.z[j] -= cb * ft.rows[r][j]
		}
		ft.obj -= cb * ft.rows[r][ft.total]
	}
	banned := make([]bool, ft.total)
	for j := s.ncols; j < ft.total; j++ {
		banned[j] = true
	}
	switch ft.iterate(banned, pivotCap) {
	case floatCapped:
		return NoStatus, ft, false
	case floatUnbounded:
		return Unbounded, ft, true
	}
	if perturb && !floatSkipDualCleanup {
		// The basis is optimal for the PERTURBED right-hand side; walk
		// it to one primal feasible for the true RHS with float dual
		// pivots, so the exact crossover doesn't have to do the same
		// walk at big-rational prices. Best-effort: on failure the
		// basis is still a valid candidate — the exact dual repair
		// simply has more to do.
		ft.dualCleanup(banned, pivotCap)
	}
	return Optimal, ft, true
}

// floatSkipDualCleanup suppresses the float-side dual cleanup so the
// candidate basis stays optimal for the perturbed RHS only. Tests flip
// it to regenerate the long-eta-chain exact dual repairs the cleanup
// exists to avoid (the refactorization-cadence regression tests);
// production code never sets it.
var floatSkipDualCleanup = false

// dualCleanup runs dual-simplex pivots against the de-perturbed
// right-hand side (row[total] − row[total+1], see floatTab.delta)
// until it is nonnegative within tolerance: leaving row most negative,
// entering column by the dual ratio test min z_j/(−a_rj) over
// a_rj < 0, ties toward the smaller column index — the float mirror
// of the exact solveDualRepair the crossover would otherwise run.
// Returns false when a row cannot be repaired (left for the exact side
// to adjudicate) or the pivot cap is hit.
func (ft *floatTab) dualCleanup(banned []bool, maxPivots int) bool {
	if !ft.delta {
		return true
	}
	d := ft.total + 1
	for ft.pivots < maxPivots {
		leave := -1
		worst := -floatEps
		for r := range ft.rows {
			row := ft.rows[r]
			if tv := row[ft.total] - row[d]; tv < worst {
				worst = tv
				leave = r
			}
		}
		if leave < 0 {
			return true
		}
		lr := ft.rows[leave]
		enter := -1
		best := math.Inf(1)
		for j := 0; j < ft.total; j++ {
			if banned != nil && j < len(banned) && banned[j] {
				continue
			}
			a := lr[j]
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
// ok=false and the caller falls back to the exact two-phase solve.
func (s *standardForm) floatCandidateBasis() (basis []int, pivots int, ok bool) {
	st, ft, ok := s.floatSolve(true)
	pivots = ft.pivots
	if !ok || st != Optimal {
		return nil, pivots, false
	}
	for _, bi := range ft.basis {
		if bi >= s.ncols {
			return nil, pivots, false
		}
	}
	return ft.basis, pivots, true
}

// SolveFloat solves the same problem with a dense float64 two-phase
// simplex. It exists for the exact-vs-float ablation benchmark
// (DESIGN.md §5) and as the basis oracle for the warm-start crossover;
// production call sites use Solve. Results can differ from Solve on
// degenerate problems because of the ±1e-9 tolerance.
func (p *Problem) SolveFloat() (*FloatSolution, error) {
	if len(p.vars) == 0 {
		return nil, errors.New("lp: no variables")
	}
	s := newStandardForm(p)
	st, ft, ok := s.floatSolve(false)
	if !ok {
		return nil, errors.New("lp: float simplex hit its iteration cap")
	}
	if st != Optimal {
		return &FloatSolution{Status: st}, nil
	}
	colVal := make([]float64, ft.total)
	for r, bi := range ft.basis {
		colVal[bi] = ft.rows[r][ft.total]
	}
	x := make([]float64, len(p.vars))
	objective := 0.0
	for i := range p.vars {
		x[i] = colVal[s.colPos[i]]
		if s.colNeg[i] >= 0 {
			x[i] -= colVal[s.colNeg[i]]
		}
		objective += rational.Float(p.objective[i]) * x[i]
	}
	return &FloatSolution{Status: Optimal, Objective: objective, X: x}, nil
}

// iterate pivots until optimal, unbounded or capped: Dantzig entering
// column (most negative reduced cost, first wins ties) switching to
// Bland's rule after stallLimit degenerate pivots, leaving row by
// minimum ratio with ties broken toward the smaller basis index.
func (ft *floatTab) iterate(banned []bool, maxPivots int) floatOutcome {
	const stallLimit = 12 // degenerate pivots tolerated before engaging Bland
	stalled := 0
	lastObj := ft.obj
	for {
		if ft.pivots >= maxPivots {
			return floatCapped
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
		for r := range ft.rows {
			arj := ft.rows[r][enter]
			if arj <= floatEps {
				continue
			}
			ratio := ft.rows[r][ft.total] / arj
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

// pivot eliminates with only the nonzero columns of the pivot row.
// Entries a full sweep would have touched with pr[j] == 0 are no-ops
// (x − f·0 is exactly x in IEEE arithmetic), so the produced tableau —
// and hence the pivot path and final basis — is unchanged. Once the pivot row
// has filled in past ~2/3 density the indirect nonzero walk loses to
// a straight sequential sweep, so the elimination switches between
// the two forms per pivot; both compute identical values.
func (ft *floatTab) pivot(row, col int) {
	ft.pivots++
	pr := ft.rows[row]
	inv := 1 / pr[col]
	nz := ft.nz[:0]
	nzv := ft.nzv[:0]
	for j := range pr {
		if pr[j] == 0 {
			continue
		}
		pr[j] *= inv
		nz = append(nz, j)
		nzv = append(nzv, pr[j])
	}
	ft.nz = nz
	ft.nzv = nzv
	ft.eliminate(row, col, 0, len(ft.rows))
	if zf := ft.z[col]; zf != 0 {
		for _, j := range nz {
			if j < ft.total {
				ft.z[j] -= zf * pr[j]
			} else if j == ft.total {
				ft.obj -= zf * pr[j]
			}
			// j == ft.total+1 is the perturbation-delta column: it has
			// no reduced cost or objective contribution.
		}
	}
	ft.basis[row] = col
}

// floatParallelWork is the pivot work (rows × pivot-row nonzeros)
// below which the fan-out overhead of parallel elimination outweighs
// the arithmetic it spreads. Measured on the tailored family: the
// crossover sits near 2¹⁴ multiply-adds; the threshold is set above
// it so small LPs never pay a goroutine spawn.
const floatParallelWork = 1 << 15

// eliminate applies the scaled pivot row to rows [lo, hi), switching
// between the dense sweep and the gathered sparse walk per the pivot
// row's fill. It fans the row range out across GOMAXPROCS workers
// when the pivot is large enough to amortize the spawns; workers own
// disjoint row chunks and only read pr/nz/nzv, so the result is
// bitwise identical to the serial sweep regardless of scheduling.
func (ft *floatTab) eliminate(row, col, lo, hi int) {
	if workers := runtime.GOMAXPROCS(0); workers > 1 && (hi-lo) > 1 &&
		(hi-lo)*len(ft.nz) >= floatParallelWork {
		chunk := (hi - lo + workers - 1) / workers
		var wg sync.WaitGroup
		for l := lo; l < hi; l += chunk {
			h := l + chunk
			if h > hi {
				h = hi
			}
			wg.Add(1)
			go func(l, h int) {
				defer wg.Done()
				ft.eliminateRange(row, col, l, h)
			}(l, h)
		}
		wg.Wait()
		return
	}
	ft.eliminateRange(row, col, lo, hi)
}

// eliminateRange is the serial worker behind eliminate.
func (ft *floatTab) eliminateRange(row, col, lo, hi int) {
	pr := ft.rows[row]
	nz, nzv := ft.nz, ft.nzv
	dense := 3*len(nz) >= 2*len(pr)
	for r := lo; r < hi; r++ {
		if r == row {
			continue
		}
		tr := ft.rows[r]
		f := tr[col]
		if f == 0 {
			continue
		}
		if dense {
			tr := tr[:len(pr)] // bounds-check elimination for the sweep
			for j, p := range pr {
				tr[j] -= f * p
			}
		} else {
			// The gathered nzv turns the pivot-row reads sequential;
			// only the tr writes stay scattered.
			for k, j := range nz {
				tr[j] -= f * nzv[k]
			}
		}
	}
}
