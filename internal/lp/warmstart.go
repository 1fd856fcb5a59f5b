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
// The dual check is the first pricing sweep of solveRevised, the
// package's one exact pivot loop, started on the candidate basis. A
// strict pass (every nonbasic z_j > 0) certifies not just optimality
// but uniqueness of the optimal point, so the certified vertex is the
// canonical optimum (lex.go) and is returned directly (a "hit": zero
// exact pivots). When some reduced cost is negative but the basis is
// still primal feasible, the same loop pivots on from it — still
// strictly cheaper than a cold phase 1. A tie
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
// finishes the solve from it in solveRevised: the first pricing sweep
// is the dual certificate, a feasible but non-optimal basis resumes
// primal pivoting and a tie is refined to the canonical optimum. The
// solve is a hit when it ends Optimal with no pivot and no tie: the
// candidate was strictly dual non-degenerate, so its vertex is the
// unique optimum. done=false (with nil error) reports a basis that is
// singular or primal infeasible; the caller runs the cold fallback.
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
	sol, err = s.canonicalOptimum(ctx, basis, xB, lu, &h, opts)
	if err != nil {
		return nil, false, err
	}
	if st := opts.Stats; st != nil {
		st.WarmStartHit = sol.Status == Optimal && st.RevisedPivots == 0 && !st.TiedOptima
		st.CrossoverResumed = !st.WarmStartHit
	}
	return sol, true, nil
}
