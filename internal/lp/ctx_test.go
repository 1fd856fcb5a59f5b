package lp

import (
	"context"
	"errors"
	"testing"
	"time"

	"minimaxdp/internal/rational"
)

// smallLP builds a tiny feasible problem: max x+y s.t. x+y ≤ 4,
// x ≤ 3, with optimum 4.
func smallLP() *Problem {
	p := NewProblem(Maximize)
	x := p.NewVariable("x")
	y := p.NewVariable("y")
	p.SetObjective(TInt(x, 1), TInt(y, 1))
	p.AddConstraint([]Term{TInt(x, 1), TInt(y, 1)}, LE, rational.Int(4))
	p.AddConstraint([]Term{TInt(x, 1)}, LE, rational.Int(3))
	return p
}

func TestSolveCtxBackgroundMatchesSolve(t *testing.T) {
	want, err := smallLP().Solve()
	if err != nil {
		t.Fatal(err)
	}
	got, err := smallLP().SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status || got.Objective.Cmp(want.Objective) != 0 {
		t.Errorf("SolveCtx = (%v, %s), Solve = (%v, %s)",
			got.Status, got.Objective.RatString(), want.Status, want.Objective.RatString())
	}
}

// TestSolveCtxCanceled asserts the pivot-loop checkpoint: a context
// canceled before the solve starts surfaces as ctx.Err() from the
// very first iterate check, with no solution fabricated.
func TestSolveCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := smallLP().SolveCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveCtx(canceled) err = %v, want context.Canceled", err)
	}
	if sol != nil {
		t.Errorf("SolveCtx(canceled) returned a solution: %+v", sol)
	}
}

func TestSolveCtxDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	if _, err := smallLP().SolveCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SolveCtx(expired deadline) err = %v, want context.DeadlineExceeded", err)
	}
}

// countdownCtx is a context whose Err turns context.Canceled after
// left calls, so a test can stop a solve at a chosen checkpoint
// without depending on timing.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestFloatLocateCanceled pins the float locate's cancellation
// checkpoint: a ctx that ends after k checks stops the locate within
// k pivots and returns ctx.Err(), on the locate alone and through
// SolveWithOpts.
func TestFloatLocateCanceled(t *testing.T) {
	s := newStandardForm(tailoredTestLP(8, rational.New(1, 2)))
	_, full, ok, err := s.floatCandidateBasis(context.Background())
	if err != nil || !ok {
		t.Fatalf("uncanceled locate: ok=%t err=%v", ok, err)
	}
	const k = 5
	if full <= k {
		t.Fatalf("uncanceled locate took %d pivots; the test needs more than %d", full, k)
	}
	basis, pivots, ok, err := s.floatCandidateBasis(&countdownCtx{Context: context.Background(), left: k})
	if !errors.Is(err, context.Canceled) || ok || basis != nil {
		t.Fatalf("canceled locate: basis=%v ok=%t err=%v, want context.Canceled", basis, ok, err)
	}
	if pivots > k {
		t.Errorf("canceled locate ran %d pivots after %d checks", pivots, k)
	}

	var st SolveStats
	sol, err := tailoredTestLP(8, rational.New(1, 2)).SolveWithOpts(
		&countdownCtx{Context: context.Background(), left: k}, SolveOpts{Stats: &st})
	if !errors.Is(err, context.Canceled) || sol != nil {
		t.Fatalf("canceled solve: sol=%v err=%v, want context.Canceled", sol, err)
	}
	if st.FloatPivots == 0 || st.FloatPivots > k {
		t.Errorf("canceled solve reports %d float pivots, want 1..%d", st.FloatPivots, k)
	}
}
