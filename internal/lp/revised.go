// Revised simplex over a sparse exact LU factorization.
//
// This file supplies the two pieces every exact pivot in the package
// runs on, warm-start crossover and cold two-phase solve alike:
//
//   - sparseLU, an exact PBQ = LU factorization of the basis columns
//     that eliminates in fill-minimizing order (singleton columns
//     first — the mechanism LPs' slack columns make most of the basis
//     triangular for free) and stores only nonzeros. It replaces the
//     dense m³/3 factorization warmstart.go used to build.
//
//   - solveRevised, a revised primal simplex that pivots exactly from
//     a feasible basis — the float candidate, the cold solve's
//     slack/artificial basis (solveCold), or an optimal basis whose
//     face lexRefine is shrinking — using BTRAN/FTRAN against the
//     factorization plus product-form eta updates. It is the
//     package's only entering-rule, ratio-test and pivot loop.
//
// Every scalar is an hval (= rational.Hval): the two-tier ladder
// Small → big.Rat of an overflow-*checked* int64 rational over the
// exact fallback. Arithmetic runs on the int64 Small tier while
// operands fit — on the paper's LPs the basis entries start tiny —
// and only values past int64 pay big.Rat allocation, re-entering the
// Small tier as soon as a result fits again. The fallback is exact,
// never approximate: the ladder changes the representation of a
// value, never the value. All
// raw fixed-width arithmetic stays inside internal/rational's checked
// kernels; the ratoverflow analyzer's scope covers this package to
// keep it that way.
//
// Identity across solve paths needs no shared pivot sequence: a final
// basis that passes the strict (uniqueness) dual certificate is the
// only optimum, and a tied one is refined on the same factorization to
// the canonical lexicographically smallest optimal point (lex.go). The
// fuzz targets FuzzSparseMatchesDense and FuzzWarmStartMatchesExact
// check both strategies against an independent dense-tableau oracle
// that lives in the tests.
package lp

import (
	"context"
	"math/big"

	"minimaxdp/internal/rational"
)

// hval is the hybrid exact rational scalar of the revised-simplex
// kernels: rational.Hval, the two-tier Small → big.Rat ladder (see
// internal/rational/hybrid.go — it moved there so the
// matrix and mechanism hot loops share it). hvals are immutable;
// aliasing a shared *big.Rat (e.g. a standardForm matrix entry) into
// the big tier is safe.
type hval = rational.Hval

// hvRat wraps v on the Small tier when it fits.
func hvRat(v *big.Rat) hval { return rational.HvalFromRat(v) }

// hstats accumulates the per-solve tier counters; fold maps them into
// SolveStats at solve exit.
type hstats struct {
	rational.HybridStats
}

func (h *hstats) fold(stats *SolveStats) {
	if stats != nil {
		//dpvet:ignore ratoverflow telemetry counter, not rational arithmetic; wraparound would skew stats, never results
		stats.SmallOps += int64(h.SmallOps)
		//dpvet:ignore ratoverflow telemetry counter, as above
		stats.BigFallbacks += int64(h.BigOps)
	}
}

// fms returns a − b·c.
func (h *hstats) fms(a, b, c hval) hval { return h.FMS(a, b, c) }

// quo returns a/b for b != 0.
func (h *hstats) quo(a, b hval) hval { return h.Quo(a, b) }

// --- sparse LU ------------------------------------------------------------

// hTerm is one nonzero of a sparse hval vector.
type hTerm struct {
	idx int32
	v   hval
}

// eta is one product-form basis update: basis position p was replaced
// by a column whose FTRAN image w had pivot element wp and the listed
// off-pivot nonzeros.
type eta struct {
	p  int32
	w  []hTerm // nonzeros of w excluding position p
	wp hval
}

// sparseLU is an exact PBQ = LU factorization of the m×m basis-column
// matrix (rows = constraint rows, columns = basis positions), stored
// as per-elimination-step sparse rows, plus a stack of eta updates
// applied by the revised simplex since the last refactorization.
type sparseLU struct {
	m       int
	h       *hstats
	rowPerm []int32   // step -> original row eliminated there
	colPerm []int32   // step -> basis position eliminated there
	rowStep []int32   // original row -> step
	colStep []int32   // basis position -> step
	uIdx    [][]int32 // per step: U-row basis positions (pivot excluded)
	uVal    [][]hval
	diag    []hval    // per step: the pivot value
	lRow    [][]int32 // per step: original rows receiving a multiplier
	lVal    [][]hval

	etas []eta
	// etaBits integrates entry growth across the eta chain: the sum,
	// over pushed etas, of the widest entry's bit length. FTRAN/BTRAN
	// cost scales with both the number of etas and how wide their
	// entries are, so the refactorization trigger watches this measure
	// rather than a bare pivot count (needsRefactor).
	etaBits int
}

// findPos binary-searches the sorted position list for c.
func findPos(idx []int32, c int32) int {
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := (lo + hi) / 2
		if idx[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(idx) && idx[lo] == c {
		return lo
	}
	return -1
}

// factorizeSparse LU-factorizes the basis columns in a
// fill-minimizing elimination order: singleton columns are retired
// first (they cost nothing — no other row holds the pivot column),
// then Markowitz selection picks the (row, column) pair minimizing
// the fill bound (rowcount−1)·(colcount−1) over a bounded candidate
// list of sparsest columns. Over exact rationals any nonzero pivot is
// numerically valid, so the ordering is purely a sparsity choice —
// and sparsity is what bounds entry growth: every fill-in is a fresh
// fms product, and fill compounds through later steps and the eta
// chains built on top of the factors. ok=false reports a singular
// basis.
func (s *standardForm) factorizeSparse(basis []int, h *hstats) (*sparseLU, bool) {
	m := s.nrows
	if len(basis) != m {
		return nil, false
	}
	cols := s.columns()
	// Active matrix, row-wise: basis positions (sorted) and values.
	// A counting pass sizes every per-row list exactly — the appends
	// below never reallocate, which matters because factorization is
	// on the per-solve hot path (and re-runs every time needsRefactor
	// fires).
	rowNNZ := make([]int32, m)
	for _, j := range basis {
		for _, e := range cols[j] {
			rowNNZ[e.idx]++
		}
	}
	rows := make([][]int32, m)
	vals := make([][]hval, m)
	for i, c := range rowNNZ {
		rows[i] = make([]int32, 0, c)
		vals[i] = make([]hval, 0, c)
	}
	for k, j := range basis {
		for _, e := range cols[j] {
			rows[e.idx] = append(rows[e.idx], int32(k))
			vals[e.idx] = append(vals[e.idx], hvRat(e.v))
		}
	}
	colCount := make([]int32, m)
	colRows := make([][]int32, m) // membership lists; may go stale, filtered on use
	for _, r := range rows {
		for _, c := range r {
			colCount[c]++
		}
	}
	for c, n := range colCount {
		colRows[c] = make([]int32, 0, n)
	}
	for i, r := range rows {
		for _, c := range r {
			colRows[c] = append(colRows[c], int32(i))
		}
	}
	rowAlive := make([]bool, m)
	colAlive := make([]bool, m)
	singles := make([]int32, 0, m) // stack of candidate singleton columns
	for c := 0; c < m; c++ {
		rowAlive[c] = true
		colAlive[c] = true
		if colCount[c] == 1 {
			singles = append(singles, int32(c))
		}
	}

	f := &sparseLU{
		m:       m,
		h:       h,
		rowPerm: make([]int32, m),
		colPerm: make([]int32, m),
		rowStep: make([]int32, m),
		colStep: make([]int32, m),
		uIdx:    make([][]int32, m),
		uVal:    make([][]hval, m),
		diag:    make([]hval, m),
		lRow:    make([][]int32, m),
		lVal:    make([][]hval, m),
	}

	for step := 0; step < m; step++ {
		// Pick the pivot: a singleton column if one is queued (Markowitz
		// score 0 — the elimination touches no other row), else the
		// (row, column) pair minimizing the Markowitz fill bound
		// (rowcount−1)·(colcount−1) over a bounded candidate list of
		// the sparsest alive columns. Bounding the list keeps selection
		// linear per step instead of scanning every (row, column) pair;
		// the minimum essentially always lives among the sparsest
		// columns, and a miss costs only a slightly worse ordering,
		// never correctness.
		pc, pr := int32(-1), int32(-1)
		for len(singles) > 0 {
			c := singles[len(singles)-1]
			singles = singles[:len(singles)-1]
			if colAlive[c] && colCount[c] == 1 {
				pc = c
				break
			}
		}
		if pc >= 0 {
			// The unique alive row holding the singleton column.
			for _, ri := range colRows[pc] {
				if rowAlive[ri] && findPos(rows[ri], pc) >= 0 {
					pr = ri
					break
				}
			}
		} else {
			const markowitzCandidates = 4
			var cand [markowitzCandidates]int32
			ncand := 0
			for c := 0; c < m; c++ {
				if !colAlive[c] {
					continue
				}
				if colCount[c] == 0 {
					return nil, false // structurally singular
				}
				// Insert c into the count-sorted candidate list (stable:
				// ties keep the smaller column index first).
				pos := ncand
				for pos > 0 && colCount[cand[pos-1]] > colCount[c] {
					pos--
				}
				if pos >= markowitzCandidates {
					continue
				}
				if ncand < markowitzCandidates {
					ncand++
				}
				for i := ncand - 1; i > pos; i-- {
					cand[i] = cand[i-1]
				}
				cand[pos] = int32(c)
			}
			bestScore, bestLen := -1, 0
			for k := 0; k < ncand && bestScore != 0; k++ {
				c := cand[k]
				cc := int(colCount[c]) - 1
				for _, ri := range colRows[c] {
					if !rowAlive[ri] || findPos(rows[ri], c) < 0 {
						continue // stale membership
					}
					rl := len(rows[ri])
					score := (rl - 1) * cc
					better := bestScore < 0 || score < bestScore
					if !better && score == bestScore {
						// Deterministic tie-breaks: sparser row, then
						// smaller column index, then smaller row index.
						better = rl < bestLen ||
							(rl == bestLen && (c < pc || (c == pc && ri < pr)))
					}
					if better {
						pc, pr = c, ri
						bestScore, bestLen = score, rl
					}
				}
			}
		}
		if pc < 0 || pr < 0 {
			return nil, false
		}
		pp := findPos(rows[pr], pc)
		piv := vals[pr][pp]
		// Eliminate pc from every other alive row holding it by a
		// sorted merge against the pivot row.
		var lr []int32
		var lv []hval
		for _, ri := range colRows[pc] {
			i := int(ri)
			if !rowAlive[i] || ri == pr {
				continue
			}
			pos := findPos(rows[i], pc)
			if pos < 0 {
				continue // stale membership (entry canceled earlier)
			}
			l := h.quo(vals[i][pos], piv)
			lr = append(lr, ri)
			lv = append(lv, l)
			ni := make([]int32, 0, len(rows[i])+len(rows[pr]))
			nv := make([]hval, 0, len(rows[i])+len(rows[pr]))
			a, b := 0, 0
			ridx, rval := rows[i], vals[i]
			for a < len(ridx) || b < len(rows[pr]) {
				var ca, cb int32 = 1 << 30, 1 << 30
				if a < len(ridx) {
					ca = ridx[a]
				}
				if b < len(rows[pr]) {
					cb = rows[pr][b]
				}
				switch {
				case ca == pc:
					a++ // the pivot-column entry is eliminated by construction
				case cb == pc:
					b++
				case ca < cb:
					ni = append(ni, ca)
					nv = append(nv, rval[a])
					a++
				case cb < ca:
					// Fill-in: 0 − l·pivot entry.
					v := h.fms(hval{}, l, vals[pr][b])
					ni = append(ni, cb)
					nv = append(nv, v)
					colCount[cb]++
					colRows[cb] = append(colRows[cb], ri)
					b++
				default:
					v := h.fms(rval[a], l, vals[pr][b])
					if v.IsZero() {
						// Exact cancellation: the entry leaves the column.
						colCount[ca]--
						if colCount[ca] == 1 && colAlive[ca] {
							singles = append(singles, ca)
						}
					} else {
						ni = append(ni, ca)
						nv = append(nv, v)
					}
					a++
					b++
				}
			}
			rows[i], vals[i] = ni, nv
		}
		colCount[pc] = 0
		// Retire the pivot row: its entries leave the active submatrix;
		// the off-pivot part becomes the U row for this step.
		uIdx := make([]int32, 0, len(rows[pr])-1)
		uVal := make([]hval, 0, len(rows[pr])-1)
		for n, c := range rows[pr] {
			if c == pc {
				continue
			}
			uIdx = append(uIdx, c)
			uVal = append(uVal, vals[pr][n])
			colCount[c]--
			if colCount[c] == 1 && colAlive[c] {
				singles = append(singles, c)
			}
		}
		rowAlive[pr] = false
		colAlive[pc] = false
		f.rowPerm[step] = pr
		f.colPerm[step] = pc
		f.rowStep[pr] = int32(step)
		f.colStep[pc] = int32(step)
		f.uIdx[step] = uIdx
		f.uVal[step] = uVal
		f.diag[step] = piv
		f.lRow[step] = lr
		f.lVal[step] = lv
		rows[pr], vals[pr] = nil, nil
	}
	return f, true
}

// applyFactor solves L U x = t for the factorization alone (no etas).
// t is indexed by original row and is consumed; the result is indexed
// by basis position.
func (f *sparseLU) applyFactor(t []hval) []hval {
	h := f.h
	// Forward substitution: multipliers recorded at step k apply the
	// (final) value of the step's pivot row to rows eliminated later.
	for k := 0; k < f.m; k++ {
		tp := t[f.rowPerm[k]]
		if tp.IsZero() {
			continue
		}
		for n, i := range f.lRow[k] {
			t[i] = h.fms(t[i], f.lVal[k][n], tp)
		}
	}
	// Back substitution on U.
	x := make([]hval, f.m)
	for k := f.m - 1; k >= 0; k-- {
		acc := t[f.rowPerm[k]]
		for n, c := range f.uIdx[k] {
			xc := x[c]
			if xc.IsZero() {
				continue
			}
			acc = h.fms(acc, f.uVal[k][n], xc)
		}
		if !acc.IsZero() {
			acc = h.quo(acc, f.diag[k])
		}
		x[f.colPerm[k]] = acc
	}
	return x
}

// applyEtas pushes x (indexed by basis position) through the eta
// stack in application order: x_p ← x_p/w_p, then x_i ← x_i − w_i·x_p
// for the off-pivot nonzeros of each eta's column image.
func (f *sparseLU) applyEtas(x []hval) {
	h := f.h
	for i := range f.etas {
		e := &f.etas[i]
		xp := x[e.p]
		if xp.IsZero() {
			continue
		}
		xp = h.quo(xp, e.wp)
		x[e.p] = xp
		for _, w := range e.w {
			x[w.idx] = h.fms(x[w.idx], w.v, xp)
		}
	}
}

// ftran returns B⁻¹ a for the sparse column a (indexed by original
// row); the result is indexed by basis position.
func (f *sparseLU) ftran(col []hTerm) []hval {
	t := make([]hval, f.m)
	for _, e := range col {
		t[e.idx] = e.v
	}
	x := f.applyFactor(t)
	f.applyEtas(x)
	return x
}

// solve returns x (by basis position) with B x = b, b indexed by
// original row.
func (f *sparseLU) solve(b []*big.Rat) []hval {
	t := make([]hval, f.m)
	for i, v := range b {
		t[i] = hvRat(v)
	}
	x := f.applyFactor(t)
	f.applyEtas(x)
	return x
}

// solveTranspose returns y (by original row) with Bᵀ y = c, c indexed
// by basis position: the BTRAN pass. Eta transposes apply in reverse
// order before the factor transpose solve.
func (f *sparseLU) solveTranspose(c []hval) []hval {
	h := f.h
	m := f.m
	d := make([]hval, m)
	copy(d, c)
	for i := len(f.etas) - 1; i >= 0; i-- {
		e := &f.etas[i]
		acc := d[e.p]
		for _, w := range e.w {
			if dv := d[w.idx]; !dv.IsZero() {
				acc = h.fms(acc, w.v, dv)
			}
		}
		d[e.p] = h.quo(acc, e.wp)
	}
	// Uᵀ forward substitution over steps (push style).
	w := make([]hval, m)
	for k := 0; k < m; k++ {
		w[k] = d[f.colPerm[k]]
	}
	for j := 0; j < m; j++ {
		if w[j].IsZero() {
			continue
		}
		w[j] = h.quo(w[j], f.diag[j])
		wj := w[j]
		if wj.IsZero() {
			continue
		}
		for n, c := range f.uIdx[j] {
			k := f.colStep[c]
			w[k] = h.fms(w[k], f.uVal[j][n], wj)
		}
	}
	// Lᵀ back substitution (pull style, descending steps).
	for k := m - 1; k >= 0; k-- {
		acc := w[k]
		for n, i := range f.lRow[k] {
			vi := w[f.rowStep[i]]
			if vi.IsZero() {
				continue
			}
			acc = h.fms(acc, f.lVal[k][n], vi)
		}
		w[k] = acc
	}
	y := make([]hval, m)
	for k := 0; k < m; k++ {
		y[f.rowPerm[k]] = w[k]
	}
	return y
}

// pushEta records the basis change at position p with FTRAN image w,
// charging the eta's widest entry against the refactorization bit
// budget.
func (f *sparseLU) pushEta(p int, w []hval) {
	var nz []hTerm
	maxBits := w[p].Bits()
	for i, v := range w {
		if i == p || v.IsZero() {
			continue
		}
		if b := v.Bits(); b > maxBits {
			maxBits = b
		}
		nz = append(nz, hTerm{idx: int32(i), v: v})
	}
	f.etas = append(f.etas, eta{p: int32(p), w: nz, wp: w[p]})
	f.etaBits += maxBits
}

// --- revised iteration ----------------------------------------------------

// Refactorization trigger. Sparse refactorization is cheap (the
// singleton-first Markowitz ordering keeps fill near zero on the
// mechanism LPs) and — crucially — resets entry growth: the
// refactorized basis entries are ratios of the *current* basis, far
// narrower than the accumulated eta-chain products. FTRAN/BTRAN cost
// grows with every eta and with entry width, so refactorization fires
// on whichever bound is hit first:
//
//   - etaBitBudget: the integrated entry magnitude (sparseLU.etaBits)
//     — the measured-growth trigger. On well-conditioned chains this
//     never fires before the count backstop; on entry-growth-heavy
//     chains (the cold solve of the n=8 absolute interaction LP at
//     α=1/2 fires it three times) it fires after a handful of pivots,
//     which is exactly when rebuilding wins.
//   - revisedRefactorCap: a plain pivot-count backstop so bookkeeping
//     cost stays bounded even when every entry is tiny.
const (
	etaBitBudget       = 192
	revisedRefactorCap = 64
)

// needsRefactor reports whether the eta chain should be collapsed
// into a fresh factorization, and whether the magnitude trigger (as
// opposed to the count backstop) is what fired.
func (f *sparseLU) needsRefactor() (refactor, magnitude bool) {
	if f.etaBits >= etaBitBudget {
		return true, true
	}
	return len(f.etas) >= revisedRefactorCap, false
}

// recordRefactor folds one refactorization into the solve stats.
func recordRefactor(opts *SolveOpts, magnitude bool) {
	if opts == nil || opts.Stats == nil {
		return
	}
	opts.Stats.Refactorizations++
	if magnitude {
		opts.Stats.MagnitudeRefactors++
	}
}

// commitPivot makes column enter basic at position p, whose FTRAN
// image is w, and counts the pivot. Once needsRefactor asks for it the
// eta chain collapses into a fresh factorization, in place, and xB is
// recomputed from scratch: exact values, so this is a representation
// refresh, not a numeric repair, and it sheds the big-tier values
// the eta chain accumulated, which is half the point of refactorizing.
// A singular refactorization cannot happen in exact arithmetic and
// reports errInvariant.
func (s *standardForm) commitPivot(basis []int, xB []hval, lu *sparseLU, p, enter int, w []hval, h *hstats, opts *SolveOpts) error {
	basis[p] = enter
	if opts.Stats != nil {
		opts.Stats.RevisedPivots++
	}
	lu.pushEta(p, w)
	if refac, mag := lu.needsRefactor(); refac {
		nlu, ok := s.factorizeSparse(basis, h)
		if !ok {
			return errInvariant
		}
		*lu = *nlu
		recordRefactor(opts, mag)
		copy(xB, lu.solve(s.b))
	}
	return nil
}

// pricing selects solveRevised's entering rule and receives its
// reduced costs.
type pricing struct {
	window int    // Dantzig candidate-list width, at least 64
	bland  bool   // Bland's rule from the first pivot
	banned []bool // nonbasic columns that may not enter; nil bans none
	// z receives each reduced cost priced, by column. At an optimum
	// it holds the final sweep's, which priced every nonbasic column
	// not banned.
	z []hval
}

// solveRevised runs exact primal revised-simplex pivoting from a
// primal-feasible basis under cost (indexed by column, artificials
// included; only columns below s.ncols ever enter) to an optimum or an
// unbounded ray. It is the package's one exact entering, ratio-test
// and pivot loop: phase 1 and 2 of the cold solve, the crossover's
// resume and each face phase of lexRefine all run here. The entering
// column is the Dantzig choice of pr's pricing (first wins ties),
// switching to Bland's rule after stallLimit degenerate pivots or, with
// pr.bland, from the first pivot; the leaving row is chosen by
// minimum ratio with ties toward the smaller basis index. basis, xB and
// lu are advanced in place, and an optimum is left there. tied reports
// that the final sweep priced some nonbasic column at exactly zero:
// the optimum may not be unique.
//
// An Unbounded verdict is trustworthy: it is reached from an
// exactly-feasible vertex by exact pivoting.
func (s *standardForm) solveRevised(ctx context.Context, basis []int, xB []hval, lu *sparseLU, h *hstats, opts *SolveOpts, cost []hval, pr pricing) (st Status, tied bool, err error) {
	const stallLimit = 12 // degenerate pivots tolerated before engaging Bland
	m := s.nrows
	cB := make([]hval, m)
	skip := make([]bool, s.ncols) // basic or banned: may not enter
	copy(skip, pr.banned)
	for k, j := range basis {
		cB[k] = cost[j]
		if j < s.ncols {
			skip[j] = true
		}
	}
	stalled := 0
	// Partial (candidate-list) pricing: each Dantzig iteration prices a
	// rotating window of nonbasic columns, expanding window by window
	// until some window holds an eligible column; only an iteration
	// that wraps the full column range with no candidate declares
	// optimality (and only such a full sweep is trusted for the
	// tied-optimum check). The entering choice is the window-local
	// Dantzig winner, which only changes the pivot path, never the
	// canonical result. Bland mode keeps a full smallest-index scan:
	// its anti-cycling guarantee needs the global minimum eligible
	// index.
	priceWindow := max(pr.window, 64)
	priceStart := 0
	for {
		if err := ctx.Err(); err != nil {
			return NoStatus, false, err
		}
		y := lu.solveTranspose(cB)
		useBland := pr.bland || stalled >= stallLimit
		enter := -1
		var bestZ hval
		tied = false
		if useBland {
			for j := 0; j < s.ncols; j++ {
				if skip[j] {
					continue
				}
				z := s.price(h, cost[j], j, y)
				pr.z[j] = z
				switch z.Sign() {
				case 0:
					tied = true
				case -1:
					enter = j
				}
				if enter >= 0 {
					break // Bland: smallest eligible index
				}
			}
		} else {
			scanned := 0
			j := priceStart
			for scanned < s.ncols {
				windowEnd := scanned + priceWindow
				if windowEnd > s.ncols {
					windowEnd = s.ncols
				}
				for ; scanned < windowEnd; scanned++ {
					jj := j
					if j++; j >= s.ncols {
						j = 0
					}
					if skip[jj] {
						continue
					}
					z := s.price(h, cost[jj], jj, y)
					pr.z[jj] = z
					switch z.Sign() {
					case 0:
						tied = true
					case -1:
						if enter < 0 || z.Cmp(bestZ) < 0 {
							enter, bestZ = jj, z
						}
					}
				}
				if enter >= 0 {
					// Rotate: the next iteration starts where this window
					// ended, so every column is priced regularly.
					priceStart = j
					break
				}
			}
		}
		if enter < 0 {
			return Optimal, tied, nil
		}
		w := lu.ftran(s.hcol(enter))
		leave := -1
		var bestRatio hval
		for k := 0; k < m; k++ {
			if w[k].Sign() <= 0 {
				continue
			}
			ratio := h.quo(xB[k], w[k])
			if leave < 0 || ratio.Cmp(bestRatio) < 0 ||
				(ratio.Cmp(bestRatio) == 0 && basis[k] < basis[leave]) {
				leave = k
				bestRatio = ratio
			}
		}
		if leave < 0 {
			return Unbounded, false, nil
		}
		theta := bestRatio
		degenerate := theta.IsZero()
		for k := 0; k < m; k++ {
			if k == leave || w[k].IsZero() || theta.IsZero() {
				continue
			}
			xB[k] = h.fms(xB[k], w[k], theta)
		}
		xB[leave] = theta
		if out := basis[leave]; out < s.ncols {
			skip[out] = false
		}
		skip[enter] = true
		cB[leave] = cost[enter]
		if err := s.commitPivot(basis, xB, lu, leave, enter, w, h, opts); err != nil {
			return NoStatus, false, err
		}
		if degenerate {
			stalled++
		} else {
			stalled = 0
		}
	}
}
