package lp

import (
	"context"
	"math/big"
	"testing"

	"minimaxdp/internal/loss"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
)

// TestHvalDemotion pins the hybrid scalar's representation invariant:
// values that fit int64 live on the Small tier, only wider ones on
// big.Rat, and results demote back down whenever they re-fit. Every
// observable (Rat, Sign, Cmp) agrees with the big.Rat view regardless
// of tier.
func TestHvalDemotion(t *testing.T) {
	small := hvRat(rational.New(22, 7))
	if small.Tier() != rational.TierSmall {
		t.Error("22/7 should sit on the Small tier")
	}
	midR := new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 90), big.NewInt(3))
	midv := hvRat(midR)
	if midv.Tier() != rational.TierBig {
		t.Error("2^90/3 should sit on the big tier")
	}
	if midv.Rat().Cmp(midR) != 0 {
		t.Errorf("Rat() = %v, want %v", midv.Rat(), midR)
	}
	hugeR := new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 200), big.NewInt(3))
	bigv := hvRat(hugeR)
	if bigv.Tier() != rational.TierBig {
		t.Error("2^200/3 should sit on the big tier")
	}
	var h hstats
	// (2^90/3) − (2^90/3)·1 == 0: a big-tier op whose result re-fits.
	z := h.fms(midv, midv, hvRat(rational.One()))
	if z.Tier() != rational.TierSmall {
		t.Error("zero result should demote to the Small tier")
	}
	if !z.IsZero() || z.Sign() != 0 {
		t.Errorf("fms(x, x, 1) = %v, want 0", z.Rat())
	}
	if h.BigOps == 0 {
		t.Error("big-path operation not counted")
	}
	// A big-tier op whose nonzero result fits int64 must land on Small.
	q := h.quo(bigv, midv)
	wantQ := new(big.Rat).Quo(hugeR, midR)
	if q.Rat().Cmp(wantQ) != 0 {
		t.Errorf("quo(2^200/3, 2^90/3) = %v, want %v", q.Rat(), wantQ)
	}
	if q.Tier() != rational.TierBig {
		t.Error("2^110 should stay on the big tier")
	}
	r := h.quo(midv, hvRat(new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 88), big.NewInt(1))))
	if r.Tier() != rational.TierSmall || r.Rat().Cmp(big.NewRat(4, 3)) != 0 {
		t.Errorf("quo(2^90/3, 2^88) = %v on tier %d, want 4/3 on the Small tier", r.Rat(), r.Tier())
	}
	if small.Cmp(midv) >= 0 || midv.Cmp(small) <= 0 || midv.Cmp(bigv) >= 0 {
		t.Error("Cmp ordering across representations is wrong")
	}
}

// TestHstatsKernelOracle drives fms and quo across the int64 → big.Rat
// overflow boundary and cross-checks every result against big.Rat,
// asserting both tier counters move.
func TestHstatsKernelOracle(t *testing.T) {
	mk := func(n, d int64) hval { return hvRat(rational.New(n, d)) }
	mid1 := hvRat(new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 70), big.NewInt(7)))
	big1 := hvRat(new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 140), big.NewInt(11)))
	cases := []hval{
		mk(0, 1), mk(1, 1), mk(-3, 7), mk(5, 2),
		mk(1<<40, 3), mk(-(1 << 40), 9), mid1, big1,
	}
	var h hstats
	ref := func(v hval) *big.Rat { return new(big.Rat).Set(v.Rat()) }
	for _, a := range cases {
		for _, b := range cases {
			for _, c := range cases {
				got := h.fms(a, b, c)
				want := new(big.Rat).Mul(ref(b), ref(c))
				want.Sub(ref(a), want)
				if got.Rat().Cmp(want) != 0 {
					t.Fatalf("fms(%v,%v,%v) = %v, want %v",
						ref(a), ref(b), ref(c), got.Rat(), want)
				}
			}
			if b.IsZero() {
				continue
			}
			got := h.quo(a, b)
			want := new(big.Rat).Quo(ref(a), ref(b))
			if got.Rat().Cmp(want) != 0 {
				t.Fatalf("quo(%v,%v) = %v, want %v", ref(a), ref(b), got.Rat(), want)
			}
		}
	}
	if h.SmallOps == 0 || h.BigOps == 0 {
		t.Fatalf("kernel grid missed a tier: small=%d big=%d", h.SmallOps, h.BigOps)
	}
}

// luTestSetup builds the n=3 tailored LP's standard form and a
// certified optimal basis for it via the float solver.
func luTestSetup(t *testing.T) (*standardForm, []int) {
	t.Helper()
	s := newStandardForm(tailoredTestLP(3, rational.New(1, 4)))
	basis, _, ok, _ := s.floatCandidateBasis(context.Background())
	if !ok {
		t.Fatal("float solver failed to produce a basis")
	}
	return s, basis
}

// residualB asserts B·xB = b for the given basis, multiplying the
// original sparse columns directly — an oracle entirely independent
// of the LU representation under test.
func residualB(t *testing.T, s *standardForm, basis []int, xB []hval) {
	t.Helper()
	acc := rational.Vector(s.nrows)
	tmp := new(big.Rat)
	cols := s.columns()
	for k, j := range basis {
		xv := xB[k].Rat()
		for _, e := range cols[j] {
			tmp.Mul(e.v, xv)
			acc[e.idx].Add(acc[e.idx], tmp)
		}
	}
	for i := range acc {
		if acc[i].Cmp(s.b[i]) != 0 {
			t.Fatalf("(B·xB)[%d] = %s, want %s", i, acc[i].RatString(), s.b[i].RatString())
		}
	}
}

// TestSparseLUSolveExact factorizes a serving-shaped basis and checks
// both triangular solves against direct sparse multiplication:
// B·solve(b) = b and Bᵀ·solveTranspose(cB) = cB.
func TestSparseLUSolveExact(t *testing.T) {
	s, basis := luTestSetup(t)
	var h hstats
	lu, ok := s.factorizeSparse(basis, &h)
	if !ok {
		t.Fatal("factorizeSparse reported the float basis singular")
	}
	xB := lu.solve(s.b)
	residualB(t, s, basis, xB)

	cB := make([]hval, s.nrows)
	for k, j := range basis {
		cB[k] = hvRat(s.c[j])
	}
	y := lu.solveTranspose(cB)
	// Bᵀy = cB componentwise: column basis[k] of A dotted with y.
	cols := s.columns()
	tmp := new(big.Rat)
	dot := new(big.Rat)
	for k, j := range basis {
		dot.SetInt64(0)
		for _, e := range cols[j] {
			tmp.Mul(e.v, y[e.idx].Rat())
			dot.Add(dot, tmp)
		}
		if dot.Cmp(cB[k].Rat()) != 0 {
			t.Fatalf("(Bᵀy)[%d] = %s, want %s", k, dot.RatString(), cB[k].Rat().RatString())
		}
	}
	if h.SmallOps == 0 {
		t.Error("factorize+solves never used the Small fast path")
	}
}

// TestSparseLUEtaUpdate replaces one basis column through the
// product-form eta mechanism and checks the updated factorization
// still solves B'·xB = b exactly, for both a column swap and a
// refactorization cross-check.
func TestSparseLUEtaUpdate(t *testing.T) {
	s, basis := luTestSetup(t)
	var h hstats
	lu, ok := s.factorizeSparse(basis, &h)
	if !ok {
		t.Fatal("factorizeSparse failed")
	}
	inBasis := make([]bool, s.ncols)
	for _, j := range basis {
		inBasis[j] = true
	}
	cols := s.columns()
	// Find a nonbasic column and a pivotable position for it.
	enter, leave := -1, -1
	var w []hval
	for j := 0; j < s.ncols && enter < 0; j++ {
		if inBasis[j] || len(cols[j]) == 0 {
			continue
		}
		col := make([]hTerm, 0, len(cols[j]))
		for _, e := range cols[j] {
			col = append(col, hTerm{idx: int32(e.idx), v: hvRat(e.v)})
		}
		cand := lu.ftran(col)
		for p := range cand {
			if !cand[p].IsZero() {
				enter, leave, w = j, p, cand
				break
			}
		}
	}
	if enter < 0 {
		t.Fatal("no eta-updatable column found")
	}
	lu.pushEta(leave, w)
	basis[leave] = enter
	if len(lu.etas) != 1 {
		t.Fatalf("len(etas) = %d, want 1", len(lu.etas))
	}
	xB := lu.solve(s.b)
	residualB(t, s, basis, xB)
	// A fresh factorization of the updated basis must agree entry for
	// entry with the eta-updated solve.
	lu2, ok := s.factorizeSparse(basis, &h)
	if !ok {
		t.Fatal("updated basis reported singular")
	}
	xB2 := lu2.solve(s.b)
	for k := range xB {
		if xB[k].Cmp(xB2[k]) != 0 {
			t.Fatalf("eta solve and refactorized solve disagree at %d: %s vs %s",
				k, xB[k].Rat().RatString(), xB2[k].Rat().RatString())
		}
	}
}

// TestFactorizeSparseSingular hands the factorization a defective
// basis (a repeated column) and requires a clean ok=false.
func TestFactorizeSparseSingular(t *testing.T) {
	s, basis := luTestSetup(t)
	basis[1] = basis[0]
	var h hstats
	if _, ok := s.factorizeSparse(basis, &h); ok {
		t.Fatal("factorizeSparse accepted a repeated-column basis")
	}
}

// TestFindPos pins the binary search used for stale-list filtering.
func TestFindPos(t *testing.T) {
	idx := []int32{2, 3, 5, 9, 14}
	for want, c := range map[int]int32{0: 2, 2: 5, 4: 14} {
		if got := findPos(idx, c); got != want {
			t.Errorf("findPos(%d) = %d, want %d", c, got, want)
		}
	}
	for _, c := range []int32{1, 4, 15} {
		if got := findPos(idx, c); got != -1 {
			t.Errorf("findPos(%d) = %d, want -1", c, got)
		}
	}
	if got := findPos(nil, 3); got != -1 {
		t.Errorf("findPos(nil, 3) = %d, want -1", got)
	}
}

// TestColdSolveMagnitudeRefactor is the refactorization-cadence
// regression test: the cold exact solve of the n=8 absolute-loss
// interaction LP against G_{8,1/2} must collapse its eta chain on the
// entry-MAGNITUDE trigger (sparseLU.etaBits crossing etaBitBudget),
// not merely the pivot-count backstop. Before magnitude-triggered
// refactorization, FTRAN/BTRAN entries on such chains outgrew every
// fast tier and big.Rat allocation dominated the solve.
func TestColdSolveMagnitudeRefactor(t *testing.T) {
	g, err := mechanism.Geometric(8, rational.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	var stats SolveStats
	sol, err := interactionLP(g, loss.Absolute{}).SolveWithOpts(context.Background(),
		SolveOpts{Strategy: StrategyExact, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if stats.MagnitudeRefactors < 1 {
		t.Errorf("MagnitudeRefactors = %d, want ≥ 1: the eta-chain magnitude trigger never fired (Refactorizations = %d, ExactPivots = %d)",
			stats.MagnitudeRefactors, stats.Refactorizations, stats.ExactPivots)
	}
	if stats.Refactorizations < stats.MagnitudeRefactors {
		t.Errorf("Refactorizations = %d < MagnitudeRefactors = %d; counters inconsistent",
			stats.Refactorizations, stats.MagnitudeRefactors)
	}
}
