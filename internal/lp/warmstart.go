// Float-guided exact solving: the warm-start crossover.
//
// The float64 simplex (floatsimplex.go) locates a candidate optimal
// basis in microseconds; this file certifies that basis in exact
// rational arithmetic. Nothing numeric survives into the result — the
// float solver contributes only a list of column indices, and every
// quantity in the returned Solution is recomputed over big.Rat and
// checked against the simplex optimality conditions as true rational
// inequalities:
//
//	primal feasibility:  x_B = B⁻¹ b ≥ 0        (componentwise, exact)
//	dual optimality:     z_j = c_j − y·A_j > 0   with  Bᵀy = c_B
//
// A strict dual check (every nonbasic z_j > 0) certifies not just
// optimality but uniqueness of the optimal point, so the certified
// vertex is the canonical optimum (lex.go) and is returned directly (a
// "hit": zero exact pivots). When some reduced cost is negative but the
// basis is still primal feasible, exact revised-simplex pivoting
// resumes from it — still strictly cheaper than a cold phase 1. A tie
// (some nonbasic reduced cost exactly zero, so the optimal face may be
// an edge or larger), reached directly or after a resume, is refined
// on the same sparse LU to the lexicographically smallest optimal
// point, which every solve path returns. A float solver that fails
// outright, or a candidate basis that is singular or has some
// x_B < 0, demotes to the cold two-phase fallback (solveCold), which
// finishes with the same refinement. In every case the answer carries
// the same exact certificate.
package lp

import (
	"context"
	"time"
)

// Strategy selects how Solve locates the optimal basis.
type Strategy int

const (
	// StrategyWarmStart — the default — runs the float64 simplex
	// first and certifies its final basis in exact arithmetic,
	// pivoting on from it exactly when the certificate fails and
	// falling back to the pure exact solve only when the float solve
	// does. The result is identical to StrategyExact's.
	StrategyWarmStart Strategy = iota
	// StrategyExact forces the cold two-phase exact solve: the
	// ablation baseline, and a cross-check against the warm path.
	StrategyExact
)

// SolveOpts configures SolveWithOpts. The zero value is the
// production default: the warm start on.
type SolveOpts struct {
	Strategy Strategy
	// Stats, when non-nil, is reset at the start of the solve and
	// filled with counters describing what the solver actually did.
	Stats *SolveStats
}

// SolveStats reports, per solve, which path ran and how much work it
// did. Exactly one of WarmStartHit / CrossoverResumed / Fallback is
// set on a StrategyWarmStart solve that returns a Solution; a
// StrategyExact solve sets none of them.
type SolveStats struct {
	FloatPivots   int   // pivots of the float64 basis-locating solve
	FloatNanos    int64 // wall time of the float64 basis-locating solve in ns
	ExactPivots   int   // pivots of the cold two-phase solve (StrategyExact or fallback), lex step included
	RevisedPivots int   // warm-path exact pivots (crossover resume, lex refinement)

	// Hybrid-kernel tier counters for the sparse LU / revised path:
	// how many exact rational operations ran on the int64
	// rational.Small fast path and how many fell back to big.Rat (see
	// revised.go and internal/rational/hybrid.go).
	SmallOps     int64
	BigFallbacks int64

	// Basis refactorizations during revised pivoting (primal resume,
	// lex refinement and the cold solve's phases). MagnitudeRefactors counts the subset forced by the
	// eta-chain entry-magnitude trigger rather than the pivot-count
	// backstop (see sparseLU.needsRefactor).
	Refactorizations   int
	MagnitudeRefactors int

	WarmStartHit     bool // candidate basis certified optimal and unique; zero exact pivots
	CrossoverResumed bool // exact pivoting resumed (primal resume or lex refinement)
	Fallback         bool // cold two-phase exact solve ran: the float solve failed, or its basis was singular or infeasible

	// TiedOptima reports an optimum that was not unique, refined to
	// the canonical lexicographically smallest optimal point (lex.go).
	// It is set on any strategy and path, alongside the path flag.
	TiedOptima bool
}

// solveWarmStart attempts the warm paths: the float locate proposes a
// basis and crossover certifies it. done=false (with nil error) means
// the caller must run the cold two-phase fallback; when done=true, sol
// is the certified result.
func (s *standardForm) solveWarmStart(ctx context.Context, opts *SolveOpts) (sol *Solution, done bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	start := time.Now()
	basis, floatPivots, ok, err := s.floatCandidateBasis(ctx)
	if opts.Stats != nil {
		opts.Stats.FloatPivots = floatPivots
		opts.Stats.FloatNanos = time.Since(start).Nanoseconds()
	}
	if err != nil || !ok {
		return nil, false, err
	}
	return s.crossover(ctx, basis, opts)
}

// crossover certifies a candidate basis in exact arithmetic and
// finishes the solve from it: a strict certificate returns the vertex,
// a tie is refined to the canonical optimum and a feasible but
// non-optimal basis resumes primal pivoting. done=false (with nil
// error) reports a basis that is singular or primal infeasible; the
// caller runs the cold fallback.
func (s *standardForm) crossover(ctx context.Context, basis []int, opts *SolveOpts) (sol *Solution, done bool, err error) {
	var h hstats
	defer func() { h.fold(opts.Stats) }()
	lu, ok := s.factorizeSparse(basis, &h)
	if !ok {
		return nil, false, nil // singular candidate basis
	}
	xB := lu.solve(s.b)
	for _, v := range xB {
		if v.Sign() < 0 {
			return nil, false, nil // infeasible candidate basis
		}
	}
	// The basis is an exactly-feasible vertex. Check dual optimality:
	// solve Bᵀy = c_B, then price every nonbasic column.
	switch s.dualCertificate(basis, lu, &h) {
	case dualStrict:
		if opts.Stats != nil {
			opts.Stats.WarmStartHit = true
		}
		return s.basicSolution(basis, xB), true, nil
	case dualDegenerate:
		// Optimal but not unique: refine to the canonical optimum.
		sol, err = s.lexRefine(ctx, basis, xB, lu, &h, opts)
	default:
		// Feasible but not optimal: resume exact revised-simplex
		// pivoting from this vertex against the factorization,
		// skipping phase 1 entirely (revised.go).
		sol, err = s.solveRevised(ctx, basis, xB, lu, &h, opts, s.hcost(), true)
	}
	if err != nil {
		return nil, false, err
	}
	if opts.Stats != nil {
		opts.Stats.CrossoverResumed = true
	}
	return sol, true, nil
}

// dualVerdict classifies the reduced costs of the nonbasic columns.
type dualVerdict int

const (
	dualInfeasible dualVerdict = iota // some z_j < 0: basis not optimal
	dualDegenerate                    // all z_j ≥ 0, some exactly 0: optimal, maybe not unique
	dualStrict                        // all z_j > 0: optimal and unique
)

// dualCertificate solves Bᵀy = c_B against the factorization, prices
// every nonbasic column against y and classifies the basis. Pricing
// runs on the hybrid Small/big kernels: on the mechanism LPs both y
// and the matrix entries fit int64 rationals, so the sweep is
// allocation-free.
func (s *standardForm) dualCertificate(basis []int, lu *sparseLU, h *hstats) dualVerdict {
	cB := make([]hval, s.nrows)
	inBasis := make([]bool, s.ncols)
	for k, j := range basis {
		cB[k] = hvRat(s.c[j])
		inBasis[j] = true
	}
	y := lu.solveTranspose(cB)
	verdict := dualStrict
	for j := 0; j < s.ncols; j++ {
		if inBasis[j] {
			continue // z_j = 0 by construction of y
		}
		switch s.price(h, hvRat(s.c[j]), j, y).Sign() {
		case -1:
			return dualInfeasible
		case 0:
			verdict = dualDegenerate
		}
	}
	return verdict
}
