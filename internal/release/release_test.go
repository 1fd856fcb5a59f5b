package release

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"sync"
	"testing"

	"minimaxdp/internal/consumer"
	"minimaxdp/internal/derive"
	"minimaxdp/internal/loss"
	"minimaxdp/internal/matrix"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
	"minimaxdp/internal/sample"
	"minimaxdp/internal/stats"
)

func r(s string) *big.Rat { return rational.MustParse(s) }

func levels(ss ...string) []*big.Rat {
	out := make([]*big.Rat, len(ss))
	for i, s := range ss {
		out[i] = r(s)
	}
	return out
}

func TestNewPlanValidation(t *testing.T) {
	if _, err := NewPlan(0, levels("1/2")); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewPlan(3, nil); err == nil {
		t.Error("no levels accepted")
	}
	if _, err := NewPlan(3, levels("1/2", "1/4")); !errors.Is(err, ErrBadLevels) {
		t.Error("decreasing levels accepted")
	}
	if _, err := NewPlan(3, levels("1/2", "1/2")); !errors.Is(err, ErrBadLevels) {
		t.Error("equal levels accepted")
	}
	if _, err := NewPlan(3, levels("0")); !errors.Is(err, ErrBadLevels) {
		t.Error("α=0 accepted")
	}
	if _, err := NewPlan(3, levels("1")); !errors.Is(err, ErrBadLevels) {
		t.Error("α=1 accepted")
	}
}

func TestPlanAccessors(t *testing.T) {
	p, err := NewPlan(4, levels("1/4", "1/2", "3/4"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Levels() != 3 || p.N() != 4 {
		t.Error("Levels/N wrong")
	}
	a, err := p.Alpha(2)
	if err != nil || a.RatString() != "1/2" {
		t.Errorf("Alpha(2) = %v, %v", a, err)
	}
	if _, err := p.Alpha(0); err == nil {
		t.Error("level 0 accepted")
	}
	if _, err := p.Alpha(4); err == nil {
		t.Error("level 4 accepted")
	}
	m, err := p.Marginal(3)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 4 {
		t.Error("marginal has wrong size")
	}
	if _, err := p.Marginal(9); err == nil {
		t.Error("bad marginal level accepted")
	}
	tr, err := p.Transition(1)
	if err != nil || !tr.IsStochastic() {
		t.Errorf("Transition(1) = %v, %v", tr, err)
	}
	if _, err := p.Transition(3); err == nil {
		t.Error("transition 3 of a 3-level plan accepted (only 2 exist)")
	}
}

// Each marginal must be exactly G_{n,αᵢ}, and chaining transitions
// must reproduce it: G_{α1}·T1·…·T_{i−1} = G_{αi} (Algorithm 1's
// invariant).
func TestCascadeMarginalsExact(t *testing.T) {
	p, err := NewPlan(3, levels("1/5", "2/5", "3/5", "4/5"))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := p.Marginal(1)
	if err != nil {
		t.Fatal(err)
	}
	acc := cur.Matrix()
	for lvl := 2; lvl <= p.Levels(); lvl++ {
		tr, err := p.Transition(lvl - 1)
		if err != nil {
			t.Fatal(err)
		}
		acc, err = acc.Mul(tr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Marginal(lvl)
		if err != nil {
			t.Fatal(err)
		}
		if !acc.Equal(want.Matrix()) {
			t.Fatalf("chained mechanism at level %d != G_{n,α%d}", lvl, lvl)
		}
	}
}

// denseGeometric is G_{n,α} built the dense way, one closed-form
// product per entry (Definition 4).
func denseGeometric(n int, alpha *big.Rat) *matrix.Matrix {
	one := rational.One()
	onePlus := rational.Add(one, alpha)
	m := matrix.New(n+1, n+1)
	for k := 0; k <= n; k++ {
		for z := 0; z <= n; z++ {
			d := k - z
			if d < 0 {
				d = -d
			}
			c := rational.Div(rational.Sub(one, alpha), onePlus)
			if z == 0 || z == n {
				c = rational.Div(one, onePlus)
			}
			m.Set(k, z, rational.Mul(c, rational.Pow(alpha, d)))
		}
	}
	return m
}

// BuildPlan's marginals and transitions, built from their distinct
// entries, render byte for byte as the dense constructions do: G
// entrywise, and T as the factor G_α⁻¹·G_β (derive.Factor, a dense
// product).
func TestPlanMatchesDenseConstruction(t *testing.T) {
	for _, n := range []int{3, 8, 64} {
		for _, ladder := range [][]string{{"1/2", "2/3", "4/5"}, {"12/25", "101/103", "999/1000"}} {
			p, err := NewPlan(n, levels(ladder...))
			if err != nil {
				t.Fatal(err)
			}
			for lvl := 1; lvl <= p.Levels(); lvl++ {
				g, err := p.Marginal(lvl)
				if err != nil {
					t.Fatal(err)
				}
				want := denseGeometric(n, r(ladder[lvl-1]))
				if g.String() != want.String() {
					t.Fatalf("n=%d %v: marginal %d differs from the dense G", n, ladder, lvl)
				}
				if lvl == 1 {
					continue
				}
				gm, err := mechanism.New(want)
				if err != nil {
					t.Fatal(err)
				}
				wantT, err := derive.Factor(gm, r(ladder[lvl-2]))
				if err != nil {
					t.Fatal(err)
				}
				tr, err := p.Transition(lvl - 1)
				if err != nil {
					t.Fatal(err)
				}
				if tr.String() != wantT.String() {
					t.Fatalf("n=%d %v: transition %d differs from the dense factor", n, ladder, lvl-1)
				}
			}
		}
	}
}

// BenchmarkReleasePlan builds the survey's plan shape (ladder 1/2,
// 2/3, 4/5) at the tenant cap n=64: the marginals it builds are the
// G's every /v1/sample draw reads.
func BenchmarkReleasePlan(b *testing.B) {
	ladder := levels("1/2", "2/3", "4/5")
	for _, n := range []int{64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewPlan(n, ladder); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestReleaseShapesAndRanges(t *testing.T) {
	p, err := NewPlan(5, levels("1/4", "1/2"))
	if err != nil {
		t.Fatal(err)
	}
	rng := sample.NewRand(2)
	out, err := p.Release(3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d results", len(out))
	}
	for _, v := range out {
		if v < 0 || v > 5 {
			t.Errorf("result %d outside [0,5]", v)
		}
	}
	if _, err := p.Release(9, rng); err == nil {
		t.Error("out-of-range truth accepted")
	}
	if _, err := p.NaiveRelease(9, rng); err == nil {
		t.Error("out-of-range truth accepted by naive")
	}
}

// Concurrent releases from a fresh plan race to publish the alias
// tables of the first level and of every transition; run under -race.
// TestConcurrentFirstDraws checks the published tables' law.
func TestConcurrentFirstReleases(t *testing.T) {
	const n, workers = 10, 16
	p, err := NewPlan(n, levels("1/4", "1/3", "1/2"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{}) // released at once, so first draws overlap
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			rng := sample.NewRand(int64(w))
			for k := 0; k <= n; k++ {
				truth := (k + w) % (n + 1)
				out, err := p.Release(truth, rng)
				if err != nil {
					errs <- err.Error()
					return
				}
				for _, v := range out {
					if v < 0 || v > n {
						errs <- fmt.Sprintf("worker %d: result %d outside [0,%d]", w, v, n)
						return
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// The marginal law of every cascade level matches its geometric
// mechanism empirically (Algorithm 1 releases G_{n,αᵢ} at level i).
func TestCascadeMarginalLawEmpirical(t *testing.T) {
	p, err := NewPlan(4, levels("1/3", "2/3"))
	if err != nil {
		t.Fatal(err)
	}
	rng := sample.NewRand(31)
	const trials = 150000
	truth := 2
	counts := [2][]int{make([]int, 5), make([]int, 5)}
	for i := 0; i < trials; i++ {
		out, err := p.Release(truth, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[0][out[0]]++
		counts[1][out[1]]++
	}
	for lvl := 1; lvl <= 2; lvl++ {
		m, err := p.Marginal(lvl)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, 5)
		for rr := 0; rr <= 4; rr++ {
			want[rr] = rational.Float(m.Prob(truth, rr))
		}
		got := sample.EmpiricalPMF(counts[lvl-1])
		tv, err := stats.TotalVariation(got, want)
		if err != nil {
			t.Fatal(err)
		}
		if tv > 0.01 {
			t.Errorf("level %d marginal TV distance %.4f", lvl, tv)
		}
	}
}

func TestCollusionAlphaLemma4(t *testing.T) {
	p, err := NewPlan(3, levels("1/4", "1/2", "3/4"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.CollusionAlpha([]int{2, 3})
	if err != nil || a.RatString() != "1/2" {
		t.Errorf("coalition {2,3} α = %v, %v", a, err)
	}
	a, err = p.CollusionAlpha([]int{3, 1, 2})
	if err != nil || a.RatString() != "1/4" {
		t.Errorf("coalition {1,2,3} α = %v, %v", a, err)
	}
	if _, err := p.CollusionAlpha(nil); err == nil {
		t.Error("empty coalition accepted")
	}
	if _, err := p.CollusionAlpha([]int{5}); err == nil {
		t.Error("bad level accepted")
	}
}

func TestAveragingAttack(t *testing.T) {
	if AveragingAttack(nil, 5) != 0 {
		t.Error("empty attack should return 0")
	}
	if AveragingAttack([]int{2, 4}, 5) != 3 {
		t.Error("average of 2,4 should be 3")
	}
	if AveragingAttack([]int{0, 0, 20}, 5) != 5 {
		t.Error("clamp to n failed")
	}
}

// The headline collusion result: against the naive baseline a growing
// coalition's averaging attack gets strictly more accurate, while
// against the Algorithm 1 cascade it does not beat the single
// least-private release.
func TestCollusionExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo experiment")
	}
	// Eight nearby levels so averaging has real cancelling power.
	ls := levels("50/100", "51/100", "52/100", "53/100", "54/100", "55/100", "56/100", "57/100")
	p, err := NewPlan(20, ls)
	if err != nil {
		t.Fatal(err)
	}
	naive, cascade, err := p.CollusionExperiment(10, 4000, sample.NewRand(77))
	if err != nil {
		t.Fatal(err)
	}
	if len(naive) != 8 || len(cascade) != 8 {
		t.Fatalf("result lengths %d/%d", len(naive), len(cascade))
	}
	// Naive: error with all 8 colluders must be clearly below the
	// single-release error.
	if naive[7].MeanAbsError > 0.75*naive[0].MeanAbsError {
		t.Errorf("naive averaging attack did not improve: 1 colluder %.3f, 8 colluders %.3f",
			naive[0].MeanAbsError, naive[7].MeanAbsError)
	}
	// Cascade: no coalition beats the least-private single release by
	// more than Monte-Carlo noise.
	tolerance := 0.05 * cascade[0].MeanAbsError
	for _, res := range cascade[1:] {
		if res.MeanAbsError < cascade[0].MeanAbsError-tolerance {
			t.Errorf("cascade coalition of %d beat single release: %.3f < %.3f",
				res.Colluders, res.MeanAbsError, cascade[0].MeanAbsError)
		}
	}
	_ = math.Abs // keep math import if tolerances change
}

func TestCollusionExperimentValidation(t *testing.T) {
	p, err := NewPlan(3, levels("1/4", "1/2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.CollusionExperiment(9, 10, sample.NewRand(1)); err == nil {
		t.Error("bad truth accepted")
	}
	if _, _, err := p.CollusionExperiment(1, 0, sample.NewRand(1)); err == nil {
		t.Error("zero trials accepted")
	}
}

// Correlation check: cascade results are positively correlated across
// levels (they share the first draw's noise); naive results are
// essentially uncorrelated given the truth.
func TestCascadeCorrelation(t *testing.T) {
	p, err := NewPlan(20, levels("1/2", "11/20"))
	if err != nil {
		t.Fatal(err)
	}
	rng := sample.NewRand(13)
	const trials = 20000
	c1 := make([]float64, trials)
	c2 := make([]float64, trials)
	n1 := make([]float64, trials)
	n2 := make([]float64, trials)
	for i := 0; i < trials; i++ {
		cv, err := p.Release(10, rng)
		if err != nil {
			t.Fatal(err)
		}
		nv, err := p.NaiveRelease(10, rng)
		if err != nil {
			t.Fatal(err)
		}
		c1[i], c2[i] = float64(cv[0]), float64(cv[1])
		n1[i], n2[i] = float64(nv[0]), float64(nv[1])
	}
	cc, err := stats.Correlation(c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := stats.Correlation(n1, n2)
	if err != nil {
		t.Fatal(err)
	}
	if cc < 0.5 {
		t.Errorf("cascade correlation %.3f, want strongly positive", cc)
	}
	if math.Abs(nc) > 0.05 {
		t.Errorf("naive correlation %.3f, want ≈ 0", nc)
	}
}

// ViewsFor: per-level optimal interactions exist, and the loss is
// non-decreasing in the privacy level.
func TestViewsFor(t *testing.T) {
	p, err := NewPlan(4, levels("1/4", "1/2", "3/4"))
	if err != nil {
		t.Fatal(err)
	}
	c := &consumer.Consumer{Loss: loss.Absolute{}, Side: consumer.Interval(1, 3)}
	views, err := p.ViewsFor(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 3 {
		t.Fatalf("got %d views", len(views))
	}
	for i, v := range views {
		if v.Level != i+1 {
			t.Errorf("view %d has level %d", i, v.Level)
		}
		if v.Interaction == nil || v.Interaction.Loss == nil {
			t.Fatalf("view %d missing interaction", i)
		}
		if i > 0 && v.Interaction.Loss.Cmp(views[i-1].Interaction.Loss) < 0 {
			t.Errorf("loss decreased with more privacy: level %d %s < level %d %s",
				v.Level, v.Interaction.Loss.RatString(), views[i-1].Level, views[i-1].Interaction.Loss.RatString())
		}
	}
	// Bad consumer (empty side) surfaces the error.
	bad := &consumer.Consumer{Loss: loss.Absolute{}, Side: []int{99}}
	if _, err := p.ViewsFor(bad); err == nil {
		t.Error("empty-side consumer accepted")
	}
}
