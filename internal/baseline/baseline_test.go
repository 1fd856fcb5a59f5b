package baseline

import (
	"math/big"
	"testing"

	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
)

func ratEq(t *testing.T, got, want *big.Rat, msg string) {
	t.Helper()
	if got.Cmp(want) != 0 {
		t.Fatalf("%s: got %s, want %s", msg, got.RatString(), want.RatString())
	}
}

// Width-1 staircase is G_{n,α}, entry for entry, as exact rationals.
func TestStaircaseWidthOneIsGeometric(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for _, alpha := range []*big.Rat{rational.New(1, 4), rational.New(1, 2), rational.New(2, 3)} {
			st, err := Staircase(n, alpha, 1)
			if err != nil {
				t.Fatalf("Staircase(%d, %s, 1): %v", n, alpha.RatString(), err)
			}
			geo, err := mechanism.Geometric(n, alpha)
			if err != nil {
				t.Fatalf("Geometric(%d, %s): %v", n, alpha.RatString(), err)
			}
			for i := 0; i <= n; i++ {
				for z := 0; z <= n; z++ {
					if st.Prob(i, z).Cmp(geo.Prob(i, z)) != 0 {
						t.Fatalf("n=%d α=%s: staircase[%d][%d] = %s, geometric = %s",
							n, alpha.RatString(), i, z,
							st.Prob(i, z).RatString(), geo.Prob(i, z).RatString())
					}
				}
			}
		}
	}
}

// The staircase is exactly α-DP at every width: adjacent likelihood
// ratios never exceed 1/α, and BestAlpha recovers α exactly.
func TestStaircaseExactlyAlphaDP(t *testing.T) {
	alpha := rational.New(1, 3)
	for _, w := range []int{1, 2, 3, 5} {
		for _, n := range []int{1, 2, 4, 7} {
			st, err := Staircase(n, alpha, w)
			if err != nil {
				t.Fatalf("Staircase(%d, %s, %d): %v", n, alpha.RatString(), w, err)
			}
			if err := st.CheckDP(alpha); err != nil {
				t.Fatalf("width %d, n %d: not α-DP: %v", w, n, err)
			}
			// For n ≥ 2 the band step at |d| = 0→1 is visible at an
			// unclamped output, so the DP level is exactly α; at
			// n = 1 wide bands can leave only clamped tails in view
			// and the mechanism comes out strictly more private.
			if n >= 2 {
				ratEq(t, st.BestAlpha(), alpha, "staircase BestAlpha")
			} else if st.BestAlpha().Cmp(alpha) < 0 {
				t.Fatalf("width %d, n %d: BestAlpha %s below α", w, n, st.BestAlpha().RatString())
			}
		}
	}
}

// Wider bands spread mass: at width w the noise PMF is flat across
// each band, so P[D=0] strictly drops as w grows.
func TestStaircaseWidthSpreadsMass(t *testing.T) {
	alpha := rational.New(1, 2)
	n := 9
	i := n / 2 // interior row, away from the clamped tails
	prev := big.NewRat(2, 1)
	for _, w := range []int{1, 2, 3, 4} {
		st, err := Staircase(n, alpha, w)
		if err != nil {
			t.Fatalf("Staircase: %v", err)
		}
		p0 := st.Prob(i, i)
		if p0.Cmp(prev) >= 0 {
			t.Fatalf("width %d: P[z=i] = %s did not decrease from %s", w, p0.RatString(), prev.RatString())
		}
		prev = p0
	}
}

func TestStaircaseSinglePointDomain(t *testing.T) {
	st, err := Staircase(0, rational.New(1, 2), 3)
	if err != nil {
		t.Fatalf("Staircase(0): %v", err)
	}
	ratEq(t, st.Prob(0, 0), rational.One(), "single-point staircase mass")
}

// The truncated-and-renormalized Laplace is row-stochastic but NOT
// α-DP: its true privacy level BestAlpha is strictly worse (smaller —
// larger α is the stronger guarantee in this repo's convention) than
// the α it was built from.
func TestTruncatedLaplaceNotAlphaDP(t *testing.T) {
	alpha := rational.New(1, 4)
	tl, err := TruncatedLaplace(5, alpha)
	if err != nil {
		t.Fatalf("TruncatedLaplace: %v", err)
	}
	if err := tl.CheckDP(alpha); err == nil {
		t.Fatalf("truncated Laplace unexpectedly satisfies exact α-DP at α=%s", alpha.RatString())
	}
	best := tl.BestAlpha()
	if best.Cmp(alpha) >= 0 {
		t.Fatalf("BestAlpha %s should be strictly below construction α %s", best.RatString(), alpha.RatString())
	}
	if err := tl.CheckDP(best); err != nil {
		t.Fatalf("truncated Laplace not DP at its own BestAlpha %s: %v", best.RatString(), err)
	}
}

// parseSpecCases and badSpecs are the wire names TestParseSpecRoundTrip
// checks; FuzzBaselineParseSpec seeds from both.
var (
	parseSpecCases = []struct {
		in   string
		want Spec
	}{
		{"geometric", Spec{Kind: Geometric}},
		{"laplace", Spec{Kind: KindLaplace}},
		{"staircase", Spec{Kind: KindStaircase}},
		{"staircase:3", Spec{Kind: KindStaircase, Width: 3}},
	}
	badSpecs = []string{"gauss", "staircase:0", "staircase:-1", "staircase:x", "geometric:2", "laplace:1", ""}
)

func TestParseSpecRoundTrip(t *testing.T) {
	for _, c := range parseSpecCases {
		got, err := ParseSpec(c.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
		back, err := ParseSpec(got.String())
		if err != nil {
			t.Fatalf("ParseSpec(String(%q)): %v", c.in, err)
		}
		n1, _ := got.normalize()
		n2, _ := back.normalize()
		if n1 != n2 {
			t.Fatalf("spec %q does not round-trip: %+v vs %+v", c.in, n1, n2)
		}
	}
	for _, bad := range badSpecs {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) unexpectedly succeeded", bad)
		}
	}
}

// FuzzBaselineParseSpec checks that ParseSpec, which reads the
// baselines of a POST /v1/compare body, never panics, and that every
// spec it accepts is valid and re-parses from its String() form to the
// same normalized spec.
func FuzzBaselineParseSpec(f *testing.F) {
	for _, c := range parseSpecCases {
		f.Add(c.in)
	}
	for _, bad := range badSpecs {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		n1, err := spec.normalize()
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted %+v, which does not normalize: %v", s, spec, err)
		}
		back, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", spec.String(), s, err)
		}
		n2, err := back.normalize()
		if err != nil || n1 != n2 {
			t.Fatalf("%q does not round-trip: %+v vs %+v (%v)", s, n1, n2, err)
		}
	})
}

func TestCanonicalize(t *testing.T) {
	got, err := Canonicalize([]Spec{
		{Kind: KindLaplace},
		{Kind: KindStaircase, Width: 2},
		{Kind: KindStaircase}, // default width 2 — duplicate of the above
		{Kind: Geometric},
		{Kind: Geometric}, // duplicate
	})
	if err != nil {
		t.Fatalf("Canonicalize: %v", err)
	}
	want := []Spec{{Kind: Geometric}, {Kind: KindLaplace}, {Kind: KindStaircase, Width: 2}}
	if len(got) != len(want) {
		t.Fatalf("Canonicalize = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Canonicalize[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Empty set means the default set.
	def, err := Canonicalize(nil)
	if err != nil {
		t.Fatalf("Canonicalize(nil): %v", err)
	}
	if len(def) != len(DefaultSet()) {
		t.Fatalf("Canonicalize(nil) = %+v", def)
	}
	// Invalid widths refuse.
	if _, err := Canonicalize([]Spec{{Kind: Geometric, Width: 2}}); err == nil {
		t.Fatal("geometric with width unexpectedly canonicalized")
	}
}

func TestComparisonValidate(t *testing.T) {
	c := &Comparison{
		N:            2,
		Alpha:        rational.New(1, 2),
		Model:        "minimax",
		TailoredLoss: rational.New(1, 3),
		Entries: []Entry{{
			Spec:            "geometric",
			Loss:            rational.New(1, 2),
			InteractionLoss: rational.New(1, 3),
			Gap:             rational.Zero(),
			BestAlpha:       rational.New(1, 2),
		}},
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	c.Entries[0].Gap = rational.New(1, 100)
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted inconsistent gap")
	}
}
