package consumer

import (
	"context"
	"fmt"
	"math/big"
	"testing"

	"minimaxdp/internal/loss"
	"minimaxdp/internal/lp"
	"minimaxdp/internal/rational"
)

// TestTheoremOneStartMatchesExact lowers the point-start threshold so
// that the n ≤ 8 grid — four losses × full/interval side × α ∈ {1/3,
// 1/2, 2/3} — is started from Theorem 1's G·T*, and asserts that every
// tailored optimum is byte-identical to the StrategyExact solve. The
// grid holds both outcomes: absolute and squared loss on the full side
// start from the point, while zero-one loss (whose G·T* is not a
// vertex) falls back to the float locate. The interaction solve's work
// must fold into the tailored solve's stats.
func TestTheoremOneStartMatchesExact(t *testing.T) {
	defer func(old int) { interactionStartMin = old }(interactionStartMin)
	interactionStartMin = 1
	const n = 8
	losses := []loss.Function{loss.Absolute{}, loss.Squared{}, loss.ZeroOne{}, loss.Deadband{Width: 1}}
	starts, fallbacks := 0, 0
	for _, l := range losses {
		for _, side := range [][]int{nil, Interval(1, n-1)} {
			for _, alpha := range []*big.Rat{rational.New(1, 3), rational.New(1, 2), rational.New(2, 3)} {
				c := &Consumer{Loss: l, Side: side}
				name := fmt.Sprintf("%s/side=%v/α=%s", l.Name(), side, alpha.RatString())
				want, err := OptimalMechanismOpts(context.Background(), c, n, alpha, lp.SolveOpts{Strategy: lp.StrategyExact})
				if err != nil {
					t.Fatalf("%s: exact: %v", name, err)
				}
				var st lp.SolveStats
				got, err := OptimalMechanismOpts(context.Background(), c, n, alpha, lp.SolveOpts{Stats: &st})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got.Loss.Cmp(want.Loss) != 0 || !got.Mechanism.Equal(want.Mechanism) {
					t.Fatalf("%s: point-started optimum differs from the exact solve", name)
				}
				if st.PointStart == st.PointFallback {
					t.Errorf("%s: stats %+v, want exactly one of PointStart and PointFallback", name, st)
				}
				if st.PointStart && st.FloatPivots == 0 {
					t.Errorf("%s: the interaction solve's float pivots were not folded in (stats %+v)", name, st)
				}
				if st.PointStart {
					starts++
				} else {
					fallbacks++
				}
			}
		}
	}
	if starts == 0 || fallbacks == 0 {
		t.Errorf("grid took %d point starts and %d fallbacks, want both paths exercised", starts, fallbacks)
	}
}

// TestTheoremOneStartThreshold pins that below N₀ the tailored solve
// never runs the interaction solve: no point start, no fallback.
func TestTheoremOneStartThreshold(t *testing.T) {
	c := &Consumer{Loss: loss.Absolute{}}
	var st lp.SolveStats
	if _, err := OptimalMechanismOpts(context.Background(), c, interactionStartN-1, rational.New(1, 2), lp.SolveOpts{Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.PointStart || st.PointFallback {
		t.Errorf("n=%d below N₀=%d: stats %+v, want the float locate alone", interactionStartN-1, interactionStartN, st)
	}
}
