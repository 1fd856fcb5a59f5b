package derive

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"minimaxdp/internal/matrix"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
)

func r(s string) *big.Rat { return rational.MustParse(s) }

func geo(t *testing.T, n int, alpha string) *mechanism.Mechanism {
	t.Helper()
	g, err := mechanism.Geometric(n, r(alpha))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The geometric mechanism is trivially derivable from itself (T = I).
func TestGeometricSelfDerivable(t *testing.T) {
	g := geo(t, 4, "1/3")
	if !Derivable(g, r("1/3")) {
		t.Fatal("G not derivable from itself")
	}
	tm, err := Factor(g, r("1/3"))
	if err != nil {
		t.Fatal(err)
	}
	if !tm.Equal(matrix.Identity(5)) {
		t.Errorf("Factor(G, α) != I:\n%s", tm)
	}
}

// Appendix B: the example mechanism is 1/2-DP but NOT derivable from
// G_{3,1/2}; the specific violating triple is column 1, rows 0..2 with
// value −1/12 ( = (1+α²)·1/9 − α·(2/9+2/9) at α=1/2; the paper reports
// −0.75/9 = −1/12 ).
func TestAppendixBCounterexample(t *testing.T) {
	m := AppendixB()
	if err := m.CheckDP(r("1/2")); err != nil {
		t.Fatalf("Appendix B mechanism should be 1/2-DP: %v", err)
	}
	err := CheckCondition(m, r("1/2"))
	var v *ConditionViolation
	if !errors.As(err, &v) {
		t.Fatalf("expected ConditionViolation, got %v", err)
	}
	if v.Col != 1 || v.Row != 1 {
		t.Errorf("violation at col %d row %d, paper says column 1 rows 0..2", v.Col, v.Row)
	}
	if v.Value.Cmp(r("-1/12")) != 0 {
		t.Errorf("violation value %s, want -1/12", v.Value.RatString())
	}
	if v.Error() == "" {
		t.Error("empty violation message")
	}
	if _, err := Factor(m, r("1/2")); !errors.Is(err, ErrNotDerivable) {
		t.Errorf("Factor should report ErrNotDerivable, got %v", err)
	}
	if Derivable(m, r("1/2")) {
		t.Error("Derivable returned true for the counterexample")
	}
}

// Theorem 2 equivalence, checked both ways on random DP mechanisms:
// CheckCondition(M) == nil  ⇔  G⁻¹·M ≥ 0.
func TestTheorem2EquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	alpha := r("1/2")
	derivableSeen, notDerivableSeen := 0, 0
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(4)
		m := randomDPMechanism(t, rng, n, alpha)
		condOK := Derivable(m, alpha)
		_, ferr := Factor(m, alpha)
		factorOK := ferr == nil
		if condOK != factorOK {
			t.Fatalf("trial %d: condition says %v but factorization says %v for\n%s",
				trial, condOK, factorOK, m)
		}
		if condOK {
			derivableSeen++
		} else {
			notDerivableSeen++
		}
	}
	if derivableSeen == 0 || notDerivableSeen == 0 {
		t.Logf("coverage note: derivable=%d not-derivable=%d", derivableSeen, notDerivableSeen)
	}
}

// randomDPMechanism builds a random α-DP mechanism by post-processing
// the geometric mechanism with a random stochastic matrix (always DP,
// often derivable) or by mixing with randomized response (often not
// derivable).
func randomDPMechanism(t *testing.T, rng *rand.Rand, n int, alpha *big.Rat) *mechanism.Mechanism {
	t.Helper()
	g, err := mechanism.Geometric(n, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if rng.Intn(2) == 0 {
		tm := randomStochastic(rng, n+1)
		out, err := g.PostProcess(tm)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// Mix the geometric mechanism with a permuted uniform-ish DP
	// mechanism: λ·G + (1−λ)·U stays α-DP (DP is convex).
	u, err := mechanism.Uniform(n)
	if err != nil {
		t.Fatal(err)
	}
	lambda := rational.New(int64(rng.Intn(4)), 4)
	gm, um := g.Matrix(), u.Matrix()
	mix := matrix.New(n+1, n+1)
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			a := rational.Mul(lambda, gm.At(i, j))
			b := rational.Mul(rational.Sub(rational.One(), lambda), um.At(i, j))
			mix.Set(i, j, rational.Add(a, b))
		}
	}
	out, err := mechanism.New(mix)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func randomStochastic(rng *rand.Rand, dim int) *matrix.Matrix {
	m := matrix.New(dim, dim)
	for i := 0; i < dim; i++ {
		w := make([]int64, dim)
		var sum int64
		for j := range w {
			w[j] = int64(rng.Intn(6))
			sum += w[j]
		}
		if sum == 0 {
			w[i], sum = 1, 1
		}
		for j := range w {
			m.Set(i, j, rational.New(w[j], sum))
		}
	}
	return m
}

// Factorization really reconstructs M: G·Factor(M) == M.
func TestFactorReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	alpha := r("1/3")
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(4)
		g := geo(t, n, "1/3")
		tm := randomStochastic(rng, n+1)
		m, err := g.PostProcess(tm)
		if err != nil {
			t.Fatal(err)
		}
		fac, err := Factor(m, alpha)
		if err != nil {
			t.Fatal(err)
		}
		prod, err := g.Matrix().Mul(fac)
		if err != nil {
			t.Fatal(err)
		}
		if !prod.Equal(m.Matrix()) {
			t.Fatalf("G·T != M on trial %d", trial)
		}
	}
}

// Lemma 3: for α ≤ β, T_{α,β} is stochastic and G_α·T_{α,β} = G_β.
func TestTransitionLemma3(t *testing.T) {
	grid := []string{"1/5", "1/4", "1/3", "1/2", "2/3", "3/4", "4/5"}
	n := 4
	for ai, as := range grid {
		for bi := ai; bi < len(grid); bi++ {
			alpha, beta := r(as), r(grid[bi])
			tr, err := Transition(n, alpha, beta)
			if err != nil {
				t.Fatalf("Transition(%s,%s): %v", as, grid[bi], err)
			}
			if !tr.IsStochastic() {
				t.Errorf("T_{%s,%s} not stochastic", as, grid[bi])
			}
			gA := geo(t, n, as)
			gB := geo(t, n, grid[bi])
			prod, err := gA.Matrix().Mul(tr)
			if err != nil {
				t.Fatal(err)
			}
			if !prod.Equal(gB.Matrix()) {
				t.Errorf("G_%s · T != G_%s", as, grid[bi])
			}
		}
	}
}

// The structured T_{α,β} (a band plus boundary rows and columns)
// must equal the dense product G_α⁻¹·G_β, for unreduced spellings of
// α and β too, and TransitionMechanism must wrap the same matrix.
func TestTransitionMatchesDenseProduct(t *testing.T) {
	pairs := [][2]string{
		{"12/25", "101/103"}, {"101/103", "999/1000"}, {"12/25", "999/1000"},
		{"1/2", "2/3"}, {"1/3", "1/2"}, {"24/50", "202/206"}, {"2/6", "3/6"},
	}
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 33, 64}
	for _, p := range pairs {
		alpha, beta := r(p[0]), r(p[1])
		for _, n := range sizes {
			gInv, err := mechanism.GeometricInverse(n, alpha)
			if err != nil {
				t.Fatal(err)
			}
			want, err := gInv.Mul(geo(t, n, p[1]).Matrix())
			if err != nil {
				t.Fatal(err)
			}
			got, err := Transition(n, alpha, beta)
			if err != nil {
				t.Fatalf("Transition(%d, %s, %s): %v", n, p[0], p[1], err)
			}
			if !got.Equal(want) {
				t.Fatalf("n=%d: T_{%s,%s} differs from G_α⁻¹·G_β", n, p[0], p[1])
			}
			tm, err := TransitionMechanism(n, alpha, beta)
			if err != nil {
				t.Fatal(err)
			}
			if !tm.Matrix().Equal(want) {
				t.Fatalf("n=%d: TransitionMechanism(%s, %s) differs from G_α⁻¹·G_β", n, p[0], p[1])
			}
		}
	}
}

func TestTransitionIdentityAndRejection(t *testing.T) {
	tr, err := Transition(3, r("1/2"), r("1/2"))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Equal(matrix.Identity(4)) {
		t.Error("T_{α,α} should be the identity")
	}
	if _, err := Transition(3, r("3/4"), r("1/2")); err == nil {
		t.Error("privacy cannot be removed: α > β must be rejected")
	}
	for _, bad := range [][2]string{{"0", "1/2"}, {"-1/2", "1/2"}, {"1/2", "1"}} {
		if _, err := Transition(3, r(bad[0]), r(bad[1])); err == nil {
			t.Errorf("Transition(3, %s, %s) accepted", bad[0], bad[1])
		}
	}
	if _, err := Transition(0, r("1/4"), r("1/2")); err == nil {
		t.Error("n=0 accepted")
	}
}

// The reverse direction really is impossible: factoring G_α from G_β
// (α < β) yields a matrix with negative entries.
func TestReverseTransitionNotStochastic(t *testing.T) {
	gA := geo(t, 4, "1/4")
	if _, err := Factor(gA, r("1/2")); !errors.Is(err, ErrNotDerivable) {
		t.Errorf("deriving a weaker-privacy geometric from a stronger one should fail, got %v", err)
	}
}

// Cramer certificates agree in sign with the Lemma 2 closed forms.
func TestCramerCertificateMatchesLemma2(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	alpha := r("2/5")
	n := 4
	for trial := 0; trial < 40; trial++ {
		x := make([]*big.Rat, n+1)
		for i := range x {
			x[i] = rational.New(int64(rng.Intn(9)), 9)
		}
		for i := 0; i <= n; i++ {
			det, err := CramerCertificate(n, alpha, i, x)
			if err != nil {
				t.Fatal(err)
			}
			sign, err := Lemma2Sign(n, alpha, i, x)
			if err != nil {
				t.Fatal(err)
			}
			if det.Sign() != sign {
				t.Fatalf("trial %d pos %d: det sign %d, lemma sign %d (x=%v)",
					trial, i, det.Sign(), sign, x)
			}
		}
	}
}

func TestCramerCertificateValidation(t *testing.T) {
	if _, err := CramerCertificate(3, r("1/2"), 0, rational.Vector(2)); err == nil {
		t.Error("wrong-length column accepted")
	}
	if _, err := Lemma2Sign(3, r("1/2"), 0, rational.Vector(2)); err == nil {
		t.Error("wrong-length column accepted by Lemma2Sign")
	}
	if _, err := Lemma2Sign(3, r("1/2"), 9, rational.Vector(4)); err == nil {
		t.Error("out-of-range position accepted")
	}
}

// Randomized response at its own privacy level is generally NOT
// derivable from the geometric mechanism at that level — a natural
// non-counterexample-shaped instance of Appendix B's phenomenon.
func TestRandomizedResponseNotDerivable(t *testing.T) {
	rr, err := mechanism.RandomizedResponse(3, r("1/2"))
	if err != nil {
		t.Fatal(err)
	}
	alpha := rr.BestAlpha()
	if Derivable(rr, alpha) {
		t.Skip("this parameterization happens to be derivable; not a failure")
	}
	if _, err := Factor(rr, alpha); !errors.Is(err, ErrNotDerivable) {
		t.Errorf("expected ErrNotDerivable, got %v", err)
	}
}

// Derivability is transitive through post-processing: if M = G·T then
// any further stochastic T' keeps M·T' derivable.
func TestDerivabilityClosedUnderPostProcessing(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	alpha := r("1/2")
	g := geo(t, 3, "1/2")
	m, err := g.PostProcess(randomStochastic(rng, 4))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := m.PostProcess(randomStochastic(rng, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !Derivable(m2, alpha) {
		t.Error("post-processing broke derivability")
	}
}

// DerivableFrom generalizes Factor: agreement on the geometric case.
func TestDerivableFromMatchesFactor(t *testing.T) {
	alpha := r("1/2")
	g := geo(t, 3, "1/2")
	rng := rand.New(rand.NewSource(41))
	m, err := g.PostProcess(randomStochastic(rng, 4))
	if err != nil {
		t.Fatal(err)
	}
	tm, err := DerivableFrom(m, g)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := g.Matrix().Mul(tm)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.Equal(m.Matrix()) {
		t.Error("witness T does not reproduce x")
	}
	// And the Appendix B counterexample is still rejected.
	if _, err := DerivableFrom(AppendixB(), g); !errors.Is(err, ErrNotDerivable) {
		t.Errorf("Appendix B accepted by general derivability: %v", err)
	}
	_ = alpha
}

// DerivableFrom handles singular deployed mechanisms, where Factor's
// inverse route cannot exist: anything is derivable from the identity,
// and only constant-row mechanisms are derivable from the uniform one.
func TestDerivableFromSingularCases(t *testing.T) {
	id, err := mechanism.Identity(3)
	if err != nil {
		t.Fatal(err)
	}
	u, err := mechanism.Uniform(3)
	if err != nil {
		t.Fatal(err)
	}
	// uniform = identity·(uniform matrix): derivable.
	if _, err := DerivableFrom(u, id); err != nil {
		t.Errorf("uniform not derivable from identity: %v", err)
	}
	// identity from uniform: impossible (uniform destroys information).
	if _, err := DerivableFrom(id, u); !errors.Is(err, ErrNotDerivable) {
		t.Errorf("identity derivable from uniform?! %v", err)
	}
	// constant-row mechanism from uniform: derivable (map everything the same way).
	g := geo(t, 3, "1/2")
	if _, err := DerivableFrom(u, u); err != nil {
		t.Errorf("uniform not derivable from itself: %v", err)
	}
	if _, err := DerivableFrom(g, u); !errors.Is(err, ErrNotDerivable) {
		t.Errorf("geometric derivable from uniform?! %v", err)
	}
	// Size mismatch rejected.
	small := geo(t, 2, "1/2")
	if _, err := DerivableFrom(small, g); err == nil {
		t.Error("size mismatch accepted")
	}
}
