package consumer

import (
	"context"
	"fmt"
	"math/big"
	"testing"

	"minimaxdp/internal/baseline"
	"minimaxdp/internal/loss"
	"minimaxdp/internal/lp"
	"minimaxdp/internal/matrix"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
)

// referenceInteractionLP is the interaction LP written out term by
// term, the way interactionLP's shared-value build must reproduce: one
// rational.Mul per y[i][r]·(−l(i,r′)) term from a copied y entry, each
// loss row as d − Σ ≥ 0, and a private copy of every coefficient.
func referenceInteractionLP(l loss.Function, s []int, y *mechanism.Mechanism) (*lp.Problem, [][]lp.Var) {
	n := y.N()
	p := lp.NewProblem(lp.Minimize)
	d := p.NewVariable("d")
	tv := make([][]lp.Var, n+1)
	for r := 0; r <= n; r++ {
		tv[r] = make([]lp.Var, n+1)
		for rp := 0; rp <= n; rp++ {
			tv[r][rp] = p.NewVariable(fmt.Sprintf("T[%d][%d]", r, rp))
		}
	}
	p.SetObjective(lp.TInt(d, 1))
	for _, i := range s {
		terms := []lp.Term{lp.TInt(d, 1)}
		for r := 0; r <= n; r++ {
			yir := y.Prob(i, r)
			if yir.Sign() == 0 {
				continue
			}
			for rp := 0; rp <= n; rp++ {
				if li := l.Loss(i, rp); li.Sign() != 0 {
					terms = append(terms, lp.T(tv[r][rp], rational.Mul(yir, rational.Neg(li))))
				}
			}
		}
		p.AddConstraint(terms, lp.GE, rational.Zero())
	}
	for r := 0; r <= n; r++ {
		terms := make([]lp.Term, 0, n+1)
		for rp := 0; rp <= n; rp++ {
			terms = append(terms, lp.TInt(tv[r][rp], 1))
		}
		p.AddConstraint(terms, lp.EQ, rational.One())
	}
	return p, tv
}

// checkInteractionBuild solves the reference LP and the served build
// for one (consumer, deployed) pair and fails unless they agree on X,
// the objective, the induced mechanism, and every solve counter
// except wall time: equal counters mean equal pivot paths, which is
// what an identical standard form gives.
func checkInteractionBuild(t *testing.T, name string, c *Consumer, y *mechanism.Mechanism) {
	t.Helper()
	s, err := c.side(y.N())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	solve := func(p *lp.Problem) (*lp.Solution, lp.SolveStats) {
		var stats lp.SolveStats
		sol, err := p.SolveWithOpts(context.Background(), lp.SolveOpts{Stats: &stats})
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("%s: solve: %v, status %v", name, err, sol.Status)
		}
		stats.FloatNanos = 0
		return sol, stats
	}
	refP, refTV := referenceInteractionLP(c.Loss, s, y)
	ref, refStats := solve(refP)
	p, _ := interactionLP(c.Loss, s, y)
	got, gotStats := solve(p)
	if !rational.VectorEqual(ref.X, got.X) || ref.Objective.Cmp(got.Objective) != 0 {
		t.Fatalf("%s: solution differs from the reference build (objective %s vs %s)",
			name, got.Objective.RatString(), ref.Objective.RatString())
	}
	if refStats != gotStats {
		t.Fatalf("%s: solve counters differ from the reference build:\n got %+v\nwant %+v", name, gotStats, refStats)
	}
	n := y.N()
	tm := matrix.New(n+1, n+1)
	for r := 0; r <= n; r++ {
		for rp := 0; rp <= n; rp++ {
			tm.Set(r, rp, ref.Value(refTV[r][rp]))
		}
	}
	want, err := y.PostProcess(tm)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	served, err := OptimalInteraction(c, y)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !served.Induced.Equal(want) || !served.T.Equal(tm) || served.Loss.Cmp(ref.Objective) != 0 {
		t.Fatalf("%s: served interaction differs from the reference build", name)
	}
}

var wireLosses = []loss.Function{loss.Absolute{}, loss.Squared{}, loss.ZeroOne{}, loss.Deadband{Width: 1}}

// TestInteractionBuildMatchesReference pins the shared-value
// interaction LP to the term-by-term build on the served grid: the n=8
// wire keys against G (4 losses × full/{1..7} × α ∈ {1/3, 1/2, 2/3}),
// the n=16 keys of the cold-solves benchmark (absolute and squared,
// full side, α ∈ {1/2, 1/3}), and the staircase and laplace baselines
// at n ∈ {6, 8}.
func TestInteractionBuildMatchesReference(t *testing.T) {
	for _, a := range []string{"1/3", "1/2", "2/3"} {
		alpha := r(a)
		for _, n := range []int{6, 8} {
			var mechs []*mechanism.Mechanism
			var names []string
			if n == 8 {
				mechs, names = append(mechs, geo(t, n, a)), append(names, "geometric")
			}
			for _, spec := range []baseline.Spec{{Kind: baseline.KindLaplace}, {Kind: baseline.KindStaircase}} {
				m, err := spec.Build(n, alpha)
				if err != nil {
					t.Fatal(err)
				}
				mechs, names = append(mechs, m), append(names, spec.String())
			}
			for k, y := range mechs {
				for _, l := range wireLosses {
					for _, side := range [][]int{nil, Interval(1, n-1)} {
						name := fmt.Sprintf("%s/n=%d/α=%s/%s/side=%v", names[k], n, a, l.Name(), side)
						checkInteractionBuild(t, name, &Consumer{Loss: l, Side: side}, y)
					}
				}
			}
		}
	}
	for _, a := range []string{"1/2", "1/3"} {
		for _, l := range []loss.Function{loss.Absolute{}, loss.Squared{}} {
			checkInteractionBuild(t, fmt.Sprintf("geometric/n=16/α=%s/%s", a, l.Name()), &Consumer{Loss: l}, geo(t, 16, a))
		}
	}
}

// FuzzInteractionBuildMatchesReference runs the same comparison on
// random keys: n ≤ 10, α = p/q ∈ (0, 1), a wire loss, an interval
// side, and G, laplace or staircase deployed.
func FuzzInteractionBuildMatchesReference(f *testing.F) {
	f.Add(uint8(8), uint8(1), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(6), uint8(2), uint8(3), uint8(2), uint8(1), uint8(5), uint8(1))
	f.Add(uint8(10), uint8(1), uint8(3), uint8(3), uint8(3), uint8(9), uint8(2))
	f.Fuzz(func(t *testing.T, nb, pb, qb, lb, lo, hi, kind uint8) {
		n := 1 + int(nb)%10
		q := 2 + int64(qb)%30
		p := 1 + int64(pb)%(q-1)
		alpha := big.NewRat(p, q)
		l := wireLosses[int(lb)%len(wireLosses)]
		var side []int
		if a, b := int(lo)%(n+1), int(hi)%(n+1); a <= b && (a > 0 || b < n) {
			side = Interval(a, b)
		}
		spec := []baseline.Spec{{Kind: baseline.Geometric}, {Kind: baseline.KindLaplace}, {Kind: baseline.KindStaircase}}[int(kind)%3]
		y, err := spec.Build(n, alpha)
		if err != nil {
			t.Skip(err)
		}
		name := fmt.Sprintf("%s/n=%d/α=%s/%s/side=%v", spec.String(), n, alpha.RatString(), l.Name(), side)
		checkInteractionBuild(t, name, &Consumer{Loss: l, Side: side}, y)
	})
}
