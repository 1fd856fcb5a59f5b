package lp

import (
	"context"
	"errors"
	"math/big"
	"testing"

	"minimaxdp/internal/loss"
	"minimaxdp/internal/rational"
)

// TestPointStartFromOptimum starts the tailored LP from its own
// canonical optimum: the basis read off the point must be certified
// with zero exact pivots and no float locate, and give the same bytes.
// A point with every entry positive has a support wider than m, so it
// must fall back to the float locate, again with the same bytes.
func TestPointStartFromOptimum(t *testing.T) {
	for _, l := range []loss.Function{loss.Absolute{}, loss.ZeroOne{}} {
		t.Run(l.Name(), func(t *testing.T) {
			const n = 8
			p := tailoredLP(n, rational.New(1, 2), l)
			want, err := p.SolveWithOpts(context.Background(), SolveOpts{Strategy: StrategyExact})
			if err != nil {
				t.Fatal(err)
			}
			var st SolveStats
			got, err := p.SolveWithOpts(context.Background(), SolveOpts{Start: want.X, Stats: &st})
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, want, got)
			if !st.PointStart || st.PointFallback || st.FloatPivots != 0 || st.FloatNanos != 0 {
				t.Errorf("start at the optimum: stats %+v, want a point start without the float locate", st)
			}

			wide := make([]*big.Rat, p.NumVariables())
			wide[0] = rational.Int(1000)
			for i := 1; i < len(wide); i++ {
				wide[i] = rational.New(1, n+1)
			}
			got, err = p.SolveWithOpts(context.Background(), SolveOpts{Start: wide, Stats: &st})
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, want, got)
			if st.PointStart || !st.PointFallback || st.FloatPivots == 0 {
				t.Errorf("start at an interior point: stats %+v, want a point fallback to the float locate", st)
			}
		})
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

// FuzzPointStartMatchesExact solves the FuzzWarmStartMatchesExact LPs
// from a point decoded from the second input (feasible or not,
// optimal or not, negative entries included) and from the LP's own
// optimum, and asserts both equal the StrategyExact solve in status
// and, for an Optimal LP, in every byte.
func FuzzPointStartMatchesExact(f *testing.F) {
	points := [][]byte{nil, {0}, {3, 14, 25, 36}, {255, 7, 128, 1, 90}}
	for _, seed := range warmStartSeeds {
		for _, pt := range points {
			f.Add(seed, pt)
		}
	}
	f.Fuzz(func(t *testing.T, data, point []byte) {
		p := fuzzProblem(data)
		if p == nil {
			t.Skip()
		}
		want, err := p.SolveWithOpts(context.Background(), SolveOpts{Strategy: StrategyExact})
		if err != nil {
			t.Fatal(err)
		}
		starts := [][]*big.Rat{fuzzPoint(p.NumVariables(), point)}
		if want.Status == Optimal {
			starts = append(starts, want.X)
		}
		for _, start := range starts {
			var st SolveStats
			got, err := p.SolveWithOpts(context.Background(), SolveOpts{Start: start, Stats: &st})
			if err != nil {
				t.Fatalf("start %v: %v", start, err)
			}
			if got.Status != want.Status {
				t.Fatalf("start %v: status %v, exact %v (stats %+v)", start, got.Status, want.Status, st)
			}
			assertIdentical(t, want, got)
			if got.Status == Optimal {
				if err := got.Verify(p); err != nil {
					t.Fatalf("start %v: solution fails Verify: %v", start, err)
				}
			}
		}
	})
}

// fuzzPoint decodes a point of nv entries from fuzz bytes, cycling
// through them: small signed rationals in [−3, 7] over denominators
// 1–3. No bytes decode to the zero point.
func fuzzPoint(nv int, data []byte) []*big.Rat {
	x := make([]*big.Rat, nv)
	for i := range x {
		if len(data) == 0 {
			x[i] = rational.Zero()
			continue
		}
		b := data[i%len(data)]
		x[i] = rational.New(int64(b%11)-3, 1+int64(b/11%3))
	}
	return x
}
