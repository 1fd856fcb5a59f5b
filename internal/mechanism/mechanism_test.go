package mechanism

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"minimaxdp/internal/matrix"
	"minimaxdp/internal/rational"
	"minimaxdp/internal/sample"
)

func r(s string) *big.Rat { return rational.MustParse(s) }

func mustGeometric(t *testing.T, n int, alpha string) *Mechanism {
	t.Helper()
	g, err := Geometric(n, r(alpha))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewRejectsNonSquare(t *testing.T) {
	if _, err := New(matrix.New(2, 3)); err == nil {
		t.Error("non-square accepted")
	}
}

func TestNewRejectsNonStochastic(t *testing.T) {
	m := matrix.MustFromStrings([][]string{{"1/2", "1/3"}, {"1/2", "1/2"}})
	if _, err := New(m); !errors.Is(err, ErrNotStochastic) {
		t.Errorf("want ErrNotStochastic, got %v", err)
	}
	neg := matrix.MustFromStrings([][]string{{"3/2", "-1/2"}, {"1/2", "1/2"}})
	if _, err := New(neg); !errors.Is(err, ErrNotStochastic) {
		t.Errorf("want ErrNotStochastic for negative entry, got %v", err)
	}
}

func TestNewDeepCopies(t *testing.T) {
	m := matrix.Identity(3)
	mc, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	m.Set(0, 0, rational.Zero())
	if mc.Prob(0, 0).RatString() != "1" {
		t.Error("New aliases caller's matrix")
	}
}

func TestAdoptValidatesLikeNew(t *testing.T) {
	if _, err := Adopt(matrix.New(2, 3)); err == nil {
		t.Error("non-square accepted")
	}
	m := matrix.MustFromStrings([][]string{{"1/2", "1/3"}, {"1/2", "1/2"}})
	if _, err := Adopt(m); !errors.Is(err, ErrNotStochastic) {
		t.Errorf("want ErrNotStochastic, got %v", err)
	}
	id := matrix.Identity(3)
	mc, err := Adopt(id)
	if err != nil {
		t.Fatal(err)
	}
	if !mc.Matrix().Equal(id) {
		t.Error("Adopt changed the matrix")
	}
}

// structuredSizes and structuredAlphas are the grid on which the
// structured G (built from its 2(n+1) distinct entries) must match
// the entrywise closed form of Definition 4. "50/100" and "24/50"
// are unreduced spellings of 1/2 and 12/25.
var (
	structuredSizes  = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 33, 64}
	structuredAlphas = []string{"999/1000", "101/103", "12/25", "1/2", "50/100", "24/50"}
)

func TestGeometricMatchesEntrywiseClosedForm(t *testing.T) {
	one := rational.One()
	for _, as := range structuredAlphas {
		alpha := r(as)
		onePlus := rational.Add(one, alpha)
		boundary := rational.Div(one, onePlus)
		interior := rational.Div(rational.Sub(one, alpha), onePlus)
		for _, n := range structuredSizes {
			g := mustGeometric(t, n, as)
			for k := 0; k <= n; k++ {
				for z := 0; z <= n; z++ {
					d := k - z
					if d < 0 {
						d = -d
					}
					c := interior
					if z == 0 || z == n {
						c = boundary
					}
					if want := rational.Mul(c, rational.Pow(alpha, d)); g.Prob(k, z).Cmp(want) != 0 {
						t.Fatalf("α=%s n=%d: G[%d][%d] = %s, closed form %s",
							as, n, k, z, g.Prob(k, z).RatString(), want.RatString())
					}
				}
			}
		}
	}
}

func TestGeometricRowsAreDistributions(t *testing.T) {
	for _, alpha := range []string{"1/4", "1/2", "2/3", "9/10"} {
		for n := 1; n <= 8; n++ {
			g := mustGeometric(t, n, alpha)
			if !g.Matrix().IsStochastic() {
				t.Errorf("G_{%d,%s} is not stochastic", n, alpha)
			}
		}
	}
}

// Table 1(b): G_{3,1/4} — the paper prints the matrix without the
// (1−α)/(1+α) normalization; multiplying our exact rows by
// (1+α)/(1−α) = 5/3 must reproduce the printed entries.
func TestGeometricMatchesPaperTable1b(t *testing.T) {
	g := mustGeometric(t, 3, "1/4")
	printed := matrix.MustFromStrings([][]string{
		{"4/3", "1/4", "1/16", "1/48"},
		{"1/3", "1", "1/4", "1/12"},
		{"1/12", "1/4", "1", "1/3"},
		{"1/48", "1/16", "1/4", "4/3"},
	})
	scale := r("5/3") // (1+α)/(1−α) at α=1/4
	got := g.Matrix().Scale(scale)
	if !got.Equal(printed) {
		t.Errorf("scaled G_{3,1/4} =\n%s\nwant paper Table 1(b)\n%s", got, printed)
	}
}

// Definition 4 boundary masses: Pr[Z(k)=0] = α^k/(1+α) and
// Pr[Z(k)=n] = α^{n−k}/(1+α).
func TestGeometricBoundaryMass(t *testing.T) {
	alpha := r("1/3")
	n := 5
	g, err := Geometric(n, alpha)
	if err != nil {
		t.Fatal(err)
	}
	onePlus := rational.Add(rational.One(), alpha)
	for k := 0; k <= n; k++ {
		want0 := rational.Div(rational.Pow(alpha, k), onePlus)
		if g.Prob(k, 0).Cmp(want0) != 0 {
			t.Errorf("Pr[Z(%d)=0] = %s, want %s", k, g.Prob(k, 0).RatString(), want0.RatString())
		}
		wantN := rational.Div(rational.Pow(alpha, n-k), onePlus)
		if g.Prob(k, n).Cmp(wantN) != 0 {
			t.Errorf("Pr[Z(%d)=%d] = %s, want %s", k, n, g.Prob(k, n).RatString(), wantN.RatString())
		}
	}
}

func TestGeometricIsAlphaDP(t *testing.T) {
	for _, alpha := range []string{"1/4", "1/2", "3/4"} {
		for n := 1; n <= 6; n++ {
			g := mustGeometric(t, n, alpha)
			if err := g.CheckDP(r(alpha)); err != nil {
				t.Errorf("G_{%d,%s} fails its own DP check: %v", n, alpha, err)
			}
			// And its DP level is exactly α, not better.
			if got := g.BestAlpha(); got.Cmp(r(alpha)) != 0 {
				t.Errorf("BestAlpha(G_{%d,%s}) = %s", n, alpha, got.RatString())
			}
		}
	}
}

func TestGeometricParameterValidation(t *testing.T) {
	if _, err := Geometric(0, r("1/2")); err == nil {
		t.Error("n=0 accepted")
	}
	for _, bad := range []string{"0", "1", "-1/2", "3/2"} {
		if _, err := Geometric(3, r(bad)); err == nil {
			t.Errorf("α=%s accepted", bad)
		}
	}
}

func TestCheckDPValidation(t *testing.T) {
	g := mustGeometric(t, 3, "1/2")
	if err := g.CheckDP(r("-1/2")); err == nil {
		t.Error("negative α accepted")
	}
	if err := g.CheckDP(r("2")); err == nil {
		t.Error("α>1 accepted")
	}
	// Stricter α than the mechanism provides must be rejected with a
	// violation that names the offending cells.
	err := g.CheckDP(r("3/4"))
	var v *DPViolation
	if !errors.As(err, &v) {
		t.Fatalf("want *DPViolation, got %v", err)
	}
	if v.Msg == "" || v.Error() == "" {
		t.Error("violation lacks message")
	}
}

func TestIdentityMechanismDP(t *testing.T) {
	id, err := Identity(3)
	if err != nil {
		t.Fatal(err)
	}
	if !id.IsDP(rational.Zero()) {
		t.Error("identity should be 0-DP")
	}
	if id.IsDP(r("1/2")) {
		t.Error("identity cannot be 1/2-DP")
	}
	if id.BestAlpha().Sign() != 0 {
		t.Error("identity BestAlpha should be 0")
	}
	if _, err := Identity(0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestUniformMechanism(t *testing.T) {
	u, err := Uniform(4)
	if err != nil {
		t.Fatal(err)
	}
	if !u.IsDP(rational.One()) {
		t.Error("uniform should be 1-DP (perfect privacy)")
	}
	if u.BestAlpha().Cmp(rational.One()) != 0 {
		t.Error("uniform BestAlpha should be 1")
	}
	if _, err := Uniform(0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestRandomizedResponse(t *testing.T) {
	rr, err := RandomizedResponse(3, r("1/2"))
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Matrix().IsStochastic() {
		t.Error("randomized response not stochastic")
	}
	// Diagonal gets p + (1−p)/(n+1) = 1/2 + 1/8 = 5/8.
	if rr.Prob(1, 1).RatString() != "5/8" {
		t.Errorf("diag = %s", rr.Prob(1, 1).RatString())
	}
	if rr.Prob(1, 2).RatString() != "1/8" {
		t.Errorf("off-diag = %s", rr.Prob(1, 2).RatString())
	}
	// α level: off/diag = (1/8)/(5/8) = 1/5.
	if rr.BestAlpha().RatString() != "1/5" {
		t.Errorf("BestAlpha = %s", rr.BestAlpha().RatString())
	}
	if _, err := RandomizedResponse(0, r("1/2")); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := RandomizedResponse(3, r("2")); err == nil {
		t.Error("p>1 accepted")
	}
}

func TestBestAlphaZeroWhenSupportDiffers(t *testing.T) {
	m := matrix.MustFromStrings([][]string{
		{"1", "0"},
		{"1/2", "1/2"},
	})
	mc, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	if mc.BestAlpha().Sign() != 0 {
		t.Error("support mismatch must force α=0")
	}
}

func TestPostProcess(t *testing.T) {
	g := mustGeometric(t, 3, "1/4")
	// Paper Table 1(c): the consumer interaction matrix.
	tMat := matrix.MustFromStrings([][]string{
		{"9/11", "2/11", "0", "0"},
		{"0", "1", "0", "0"},
		{"0", "0", "1", "0"},
		{"0", "0", "2/11", "9/11"},
	})
	induced, err := g.PostProcess(tMat)
	if err != nil {
		t.Fatal(err)
	}
	if !induced.Matrix().IsStochastic() {
		t.Error("induced mechanism not stochastic")
	}
	// Exact first row of the induced mechanism (the paper's Table 1(a)
	// prints a rounded version; see EXPERIMENTS.md).
	want := []string{"36/55", "13/44", "7/176", "9/880"}
	for j, w := range want {
		if induced.Prob(0, j).Cmp(r(w)) != 0 {
			t.Errorf("induced[0][%d] = %s, want %s", j, induced.Prob(0, j).RatString(), w)
		}
	}
	// Post-processing can only preserve or improve privacy, never
	// degrade it (data-processing inequality for DP).
	if !induced.IsDP(r("1/4")) {
		t.Error("post-processed mechanism lost its 1/4-DP guarantee")
	}
}

func TestPostProcessRejectsBadT(t *testing.T) {
	g := mustGeometric(t, 2, "1/2")
	bad := matrix.MustFromStrings([][]string{{"1/2", "1/3", "0"}, {"0", "1", "0"}, {"0", "0", "1"}})
	if _, err := g.PostProcess(bad); err == nil {
		t.Error("non-stochastic T accepted")
	}
	wrongDim := matrix.Identity(2)
	if _, err := g.PostProcess(wrongDim); err == nil {
		t.Error("dimension-mismatched T accepted")
	}
}

func TestGeometricPrimeStructure(t *testing.T) {
	alpha := r("1/4")
	n := 3
	gp, err := GeometricPrime(n, alpha)
	if err != nil {
		t.Fatal(err)
	}
	// G′ is the pure Toeplitz matrix α^{|i−j|} (Table 2, right): the
	// ×(1+α) boundary-column scaling exactly cancels the boundary
	// factor 1/(1+α) of G.
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			d := i - j
			if d < 0 {
				d = -d
			}
			want := rational.Pow(alpha, d)
			if gp.At(i, j).Cmp(want) != 0 {
				t.Errorf("G'[%d][%d] = %s, want %s", i, j, gp.At(i, j).RatString(), want.RatString())
			}
		}
	}
	if _, err := GeometricPrime(3, r("0")); err == nil {
		t.Error("α=0 accepted")
	}
}

// Lemma 1: det G_{n,α} > 0, and the closed form matches direct
// computation.
func TestGeometricDetMatchesLemma1(t *testing.T) {
	for _, alpha := range []string{"1/4", "1/2", "3/5"} {
		for n := 1; n <= 7; n++ {
			g := mustGeometric(t, n, alpha)
			direct, err := g.Matrix().Det()
			if err != nil {
				t.Fatal(err)
			}
			if direct.Sign() <= 0 {
				t.Errorf("det G_{%d,%s} = %s, want > 0", n, alpha, direct.RatString())
			}
			closed := GeometricDet(n, r(alpha))
			if closed.Cmp(direct) != 0 {
				t.Errorf("closed form %s != direct %s for n=%d α=%s",
					closed.RatString(), direct.RatString(), n, alpha)
			}
		}
	}
}

// det G′_{n,α} = (1−α²)^{dim−1} where dim = n+1 (Lemma 1's induction).
func TestGeometricPrimeDet(t *testing.T) {
	for _, alpha := range []string{"1/4", "1/2"} {
		for n := 1; n <= 6; n++ {
			gp, err := GeometricPrime(n, r(alpha))
			if err != nil {
				t.Fatal(err)
			}
			det, err := gp.Det()
			if err != nil {
				t.Fatal(err)
			}
			a := r(alpha)
			want := rational.Pow(rational.Sub(rational.One(), rational.Mul(a, a)), n)
			if det.Cmp(want) != 0 {
				t.Errorf("det G'_{%d,%s} = %s, want %s", n, alpha, det.RatString(), want.RatString())
			}
		}
	}
}

func TestSampleMatchesRowDistribution(t *testing.T) {
	g := mustGeometric(t, 4, "1/2")
	rng := rand.New(rand.NewSource(42))
	const trials = 200000
	counts := make([]int, 5)
	for i := 0; i < trials; i++ {
		counts[g.Sample(2, rng)]++
	}
	for rr := 0; rr <= 4; rr++ {
		want := rational.Float(g.Prob(2, rr))
		got := float64(counts[rr]) / trials
		if diff := got - want; diff > 0.01 || diff < -0.01 {
			t.Errorf("empirical Pr[r=%d] = %.4f, want %.4f", rr, got, want)
		}
	}
}

func TestSampleOutOfRangePanics(t *testing.T) {
	g := mustGeometric(t, 2, "1/2")
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Sample did not panic")
		}
	}()
	g.Sample(5, rand.New(rand.NewSource(1)))
}

// requireAliasLaw asserts that every row's published alias table
// samples exactly the law of a table built afresh from the row.
func requireAliasLaw(t *testing.T, mc *Mechanism) {
	t.Helper()
	for i := 0; i <= mc.N(); i++ {
		want, err := sample.NewDyadicAlias(mc.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		got := mc.AliasRow(i).InducedPMF(mc.Size())
		for j, p := range want.InducedPMF(mc.Size()) {
			if got[j].Cmp(p) != 0 {
				t.Fatalf("row %d: alias table gives Pr[%d] = %s, want %s", i, j, got[j].RatString(), p.RatString())
			}
		}
	}
}

// The alias tables belong to the matrix: decoding a new matrix into a
// mechanism that has already been sampled must not keep serving the
// old rows, whether the size changes or not.
func TestUnmarshalJSONResetsAliasTables(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := mustGeometric(t, 2, "1/2")
	m.Sample(0, rng)
	bigger, err := mustGeometric(t, 4, "1/2").MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.UnmarshalJSON(bigger); err != nil {
		t.Fatal(err)
	}
	if r := m.Sample(4, rng); r < 0 || r > 4 {
		t.Fatalf("draw %d outside [0,4]", r)
	}
	requireAliasLaw(t, m)

	same, err := mustGeometric(t, 4, "1/3").MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.UnmarshalJSON(same); err != nil {
		t.Fatal(err)
	}
	requireAliasLaw(t, m)
	requireAliasLaw(t, m.Clone())
}

// Concurrent first draws race to publish each row's alias table; run
// under -race. Every draw must be in range and every published table
// must sample the row's law.
func TestConcurrentFirstDraws(t *testing.T) {
	const n, workers = 12, 16
	m := mustGeometric(t, n, "1/3")
	var wg sync.WaitGroup
	start := make(chan struct{}) // released at once, so first draws overlap
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			rng := rand.New(rand.NewSource(int64(w)))
			for k := 0; k <= n; k++ {
				i := (k + w) % (n + 1)
				if r := m.Sample(i, rng); r < 0 || r > n {
					errs <- fmt.Sprintf("worker %d: draw %d for input %d outside [0,%d]", w, r, i, n)
					return
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
	requireAliasLaw(t, m)
}

func TestFromStrings(t *testing.T) {
	mc, err := FromStrings([][]string{{"1/2", "1/2"}, {"1/2", "1/2"}})
	if err != nil {
		t.Fatal(err)
	}
	if mc.N() != 1 || mc.Size() != 2 {
		t.Error("N/Size wrong")
	}
	if _, err := FromStrings([][]string{{"bogus"}}); err == nil {
		t.Error("bad entry accepted")
	}
	if mc.String() == "" {
		t.Error("empty String")
	}
}

func TestEqualAndRow(t *testing.T) {
	a := mustGeometric(t, 3, "1/2")
	b := mustGeometric(t, 3, "1/2")
	c := mustGeometric(t, 3, "1/4")
	if !a.Equal(b) || a.Equal(c) {
		t.Error("Equal wrong")
	}
	row := a.Row(0)
	row[0].SetInt64(5)
	if a.Prob(0, 0).RatString() == "5" {
		t.Error("Row aliases mechanism")
	}
}

// Property: for random α and n, the geometric mechanism is symmetric
// under simultaneous input/output reversal (i,j) → (n−i, n−j).
func TestQuickGeometricReversalSymmetry(t *testing.T) {
	f := func(num, den uint8, nn uint8) bool {
		d := int64(den%8) + 2
		p := int64(num%uint8(d-1)) + 1 // 1 ≤ p < d so α ∈ (0,1)
		alpha := rational.New(p, d)
		n := int(nn%5) + 1
		g, err := Geometric(n, alpha)
		if err != nil {
			return false
		}
		for i := 0; i <= n; i++ {
			for j := 0; j <= n; j++ {
				if g.Prob(i, j).Cmp(g.Prob(n-i, n-j)) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: post-processing with any row-stochastic T preserves α-DP
// (the data-processing inequality the whole paper rests on).
func TestQuickPostProcessPreservesDP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		alpha := rational.New(int64(rng.Intn(3)+1), 4) // 1/4, 1/2, 3/4
		g, err := Geometric(n, alpha)
		if err != nil {
			return false
		}
		// Random stochastic T.
		tm := matrix.New(n+1, n+1)
		for i := 0; i <= n; i++ {
			weights := make([]int64, n+1)
			var sum int64
			for j := range weights {
				weights[j] = int64(rng.Intn(5))
				sum += weights[j]
			}
			if sum == 0 {
				weights[0], sum = 1, 1
			}
			for j := range weights {
				tm.Set(i, j, rational.New(weights[j], sum))
			}
		}
		induced, err := g.PostProcess(tm)
		if err != nil {
			return false
		}
		return induced.IsDP(alpha)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The closed-form inverse equals the Gauss–Jordan inverse exactly, for
// a grid of n and α.
func TestGeometricInverseClosedForm(t *testing.T) {
	for _, alpha := range []string{"1/4", "1/2", "2/3", "9/10"} {
		for n := 1; n <= 7; n++ {
			g := mustGeometric(t, n, alpha)
			want, err := g.Matrix().Inverse()
			if err != nil {
				t.Fatal(err)
			}
			got, err := GeometricInverse(n, r(alpha))
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("closed-form inverse differs at n=%d α=%s:\ngot\n%s\nwant\n%s",
					n, alpha, got, want)
			}
		}
	}
}

func TestGeometricInverseValidation(t *testing.T) {
	if _, err := GeometricInverse(0, r("1/2")); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := GeometricInverse(3, r("1")); err == nil {
		t.Error("α=1 accepted")
	}
	if _, err := GeometricInverse(3, r("0")); err == nil {
		t.Error("α=0 accepted")
	}
}

// G·G⁻¹ = I for a larger size where Gauss–Jordan would be slow enough
// to notice.
func TestGeometricInverseLargeRoundTrip(t *testing.T) {
	n := 40
	g := mustGeometric(t, n, "1/2")
	inv, err := GeometricInverse(n, r("1/2"))
	if err != nil {
		t.Fatal(err)
	}
	prod, err := g.Matrix().Mul(inv)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.Equal(matrix.Identity(n + 1)) {
		t.Error("G·G⁻¹ != I at n=40")
	}
}

// TestPostProcessStatsHybridEngages pins the hybrid threading of the
// transition product against naive big.Rat dot products: geometric
// probability entries are small rationals, so the product runs on
// the fast tiers. The name predates the fold of PostProcessStats
// into PostProcess.
func TestPostProcessStatsHybridEngages(t *testing.T) {
	g := mustGeometric(t, 3, "1/4")
	tMat := matrix.MustFromStrings([][]string{
		{"9/11", "2/11", "0", "0"},
		{"0", "1", "0", "0"},
		{"0", "0", "1", "0"},
		{"0", "0", "2/11", "9/11"},
	})
	got, err := g.PostProcess(tMat)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.New(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			acc := rational.Zero()
			for k := 0; k < 4; k++ {
				acc.Add(acc, rational.Mul(g.Prob(i, k), tMat.At(k, j)))
			}
			want.Set(i, j, acc)
		}
	}
	if !got.Matrix().Equal(want) {
		t.Fatalf("PostProcess disagrees with big.Rat dot products:\n%v\nwant\n%v", got, want)
	}
}

// TestGeometricInverseStatsHybridEngages pins the hybrid threading of
// the closed-form inverse construction against the Gauss–Jordan
// oracle. The name predates the fold of GeometricInverseStats into
// GeometricInverse.
func TestGeometricInverseStatsHybridEngages(t *testing.T) {
	n := 6
	alpha := r("2/3")
	inv, err := GeometricInverse(n, alpha)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Geometric(n, alpha)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := g.Matrix().Inverse()
	if err != nil {
		t.Fatal(err)
	}
	if !inv.Equal(oracle) {
		t.Fatal("GeometricInverse disagrees with Gauss–Jordan inverse")
	}
}
