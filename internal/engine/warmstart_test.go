package engine

import (
	"context"
	"math/big"
	"testing"
	"time"

	"minimaxdp/internal/consumer"
	"minimaxdp/internal/loss"
	"minimaxdp/internal/lp"
)

// TestWarmStartColdPathGate compares the default (warm-started)
// tailored LP solve against the cold two-phase solve (lp.StrategyExact)
// on the serving-size tailored LP from the benchmarks (absolute loss,
// n=8, α=1/2). The engine serves these keys as interactions with G
// (Theorem 1), so the LP is driven through consumer.OptimalMechanismOpts,
// the solver behind the engine's tailored LP branch and the oracle. It pins down three things: the warm path actually engages
// (nonzero warm-start hits and zero exact pivots), both return
// byte-identical artifacts, and the warm path is faster by a
// comfortable margin. A tied key (zero-one loss, n=6, α=1/2) must
// likewise match the cold solve, lex-refined without the cold
// fallback. The speed assertion is deliberately loose (≥2×, versus
// ~15× measured on idle hardware) so scheduler noise and -race
// overhead cannot flake it; the precise factor is logged for humans
// reading the test output.
func TestWarmStartColdPathGate(t *testing.T) {
	ctx := context.Background()
	c := &consumer.Consumer{Loss: loss.Absolute{}}
	n, alpha := 8, big.NewRat(1, 2)

	var mw lp.SolveStats
	start := time.Now()
	tw, err := consumer.OptimalMechanismOpts(ctx, c, n, alpha, lp.SolveOpts{Stats: &mw})
	warmDur := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !mw.WarmStartHit || mw.CrossoverResumed || mw.Fallback {
		t.Fatalf("warm solve stats = %+v, want a warm-start hit", mw)
	}
	if mw.ExactPivots != 0 {
		t.Errorf("warm-start hit ran %d exact pivots, want 0", mw.ExactPivots)
	}
	if mw.FloatPivots == 0 {
		t.Error("warm solve reports zero float pivots")
	}
	if mw.SmallOps == 0 {
		t.Error("warm-start hit reports zero Small fast-path ops; the hybrid LU kernels should dominate certification")
	}

	var se lp.SolveStats
	start = time.Now()
	te, err := consumer.OptimalMechanismOpts(ctx, c, n, alpha, lp.SolveOpts{Strategy: lp.StrategyExact, Stats: &se})
	exactDur := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if se.WarmStartHit || se.CrossoverResumed || se.Fallback {
		t.Fatalf("exact solve stats = %+v, want all path flags unset", se)
	}
	if se.ExactPivots == 0 {
		t.Error("exact solve reports zero exact pivots")
	}

	if tw.Loss.Cmp(te.Loss) != 0 {
		t.Fatalf("loss differs: warm %s, exact %s", tw.Loss.RatString(), te.Loss.RatString())
	}
	if !tw.Mechanism.Equal(te.Mechanism) {
		t.Fatal("warm-started and exact solves produced different mechanisms")
	}

	factor := float64(exactDur) / float64(warmDur)
	t.Logf("tailored n=%d α=%s: exact-only %v, warm-started %v (%.1f× faster)",
		n, alpha.RatString(), exactDur, warmDur, factor)
	if factor < 2 {
		t.Errorf("warm-started solve only %.2f× faster than exact (exact %v, warm %v); expected ≥2× at this size",
			factor, exactDur, warmDur)
	}

	// A tied key (zero-one loss, n=6, α=1/2): the optimum is not
	// unique, so the warm solve must lex-refine on the revised simplex
	// — no cold fallback — and still match the exact solve.
	tc := &consumer.Consumer{Loss: loss.ZeroOne{}}
	tie := big.NewRat(1, 2)
	var st lp.SolveStats
	warmTie, err := consumer.OptimalMechanismOpts(ctx, tc, 6, tie, lp.SolveOpts{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if st.Fallback || !st.TiedOptima || !st.CrossoverResumed {
		t.Fatalf("tied key LP stats = %+v, want one lex-refined resume and no fallback", st)
	}
	exactTie, err := consumer.OptimalMechanismOpts(ctx, tc, 6, tie, lp.SolveOpts{Strategy: lp.StrategyExact, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if !st.TiedOptima {
		t.Errorf("exact solve of the tied key: TiedOptima unset (stats %+v)", st)
	}
	if !warmTie.Mechanism.Equal(exactTie.Mechanism) || warmTie.Loss.Cmp(exactTie.Loss) != 0 {
		t.Fatal("tied key: warm-started and exact solves produced different mechanisms")
	}
}

// TestRecordLPFoldsAllCounters feeds recordLP a synthetic stats block
// with every field set and reads the full set back through the JSON
// metrics surface: a counter added to lp.SolveStats but not plumbed
// into lpCounters/snapshot would silently report zero forever. The
// wire-only ParallelPivots, PresolveRows and WideOps fields have no
// source counter and must read back as 0.
func TestRecordLPFoldsAllCounters(t *testing.T) {
	e := newEngine(t, Config{})
	e.recordLP(e.tailored, "synthetic", &lp.SolveStats{
		FloatPivots:        3,
		FloatNanos:         37,
		ExactPivots:        5,
		RevisedPivots:      7,
		SmallOps:           11,
		BigFallbacks:       13,
		Refactorizations:   29,
		MagnitudeRefactors: 31,
		Fallback:           true,
		TiedOptima:         true,
	})
	m := e.Metrics().LP
	want := LPSolveStats{
		Solves: 1, Fallbacks: 1,
		FloatPivots: 3, FloatNanos: 37, ExactPivots: 5, RevisedPivots: 7,
		SmallOps: 11, BigFallbacks: 13,
		Refactorizations: 29, MagnitudeRefactors: 31,
		TiedOptima: 1,
	}
	if m != want {
		t.Fatalf("LP metrics after synthetic fold = %+v, want %+v", m, want)
	}
}

// TestInteractionRecordsLPStats covers the interactions class of the
// LP counter plumbing: the §2.4.3 post-processing LP must advance
// exactly one path counter, and the trace hook must see the matching
// warm-start event.
func TestInteractionRecordsLPStats(t *testing.T) {
	var kinds []TraceKind
	e := newEngine(t, Config{Trace: func(ev TraceEvent) {
		switch ev.Kind {
		case TraceWarmStartHit, TraceWarmStartResume, TraceWarmStartFallback:
			kinds = append(kinds, ev.Kind)
		}
	}})
	c := &consumer.Consumer{Loss: loss.Absolute{}}
	if _, err := e.OptimalInteraction(c, 6, big.NewRat(1, 2)); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics().LP
	paths := m.WarmStartHits + m.CrossoverResumes + m.Fallbacks
	if paths != 1 {
		t.Fatalf("LP path counters sum to %d, want 1 (stats %+v)", paths, m)
	}
	if len(kinds) != 1 {
		t.Fatalf("saw %d warm-start trace events, want 1 (%v)", len(kinds), kinds)
	}
}

// TestRecordLPCountsOnlyLPs: a Bayesian tailored or compare miss runs
// the remap scan, no LP, so it must leave LP.Solves where it was; a
// minimax tailored miss runs one interaction LP and adds one.
func TestRecordLPCountsOnlyLPs(t *testing.T) {
	const n = 6
	alpha := big.NewRat(1, 2)
	e := newEngine(t, Config{})
	b := &consumer.Bayesian{Loss: loss.Absolute{}, Prior: consumer.UniformPrior(n)}
	if _, err := e.TailoredMechanism(b, n, alpha); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compare(CompareSpec{N: n, Alpha: alpha, Model: b}); err != nil {
		t.Fatal(err)
	}
	met := e.Metrics()
	if met.LP.Solves != 0 || met.Interactions.Cache.Misses != 3 {
		t.Fatalf("Bayesian misses: %d LP solves over %d interaction misses, want 0 over 3", met.LP.Solves, met.Interactions.Cache.Misses)
	}
	if _, err := e.TailoredMechanism(&consumer.Consumer{Loss: loss.Absolute{}}, n, alpha); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().LP.Solves; got != 1 {
		t.Fatalf("minimax tailored miss: %d LP solves, want 1", got)
	}
}
