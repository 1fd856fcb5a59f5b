package laplace

import (
	"errors"
	"math"
	"testing"

	"minimaxdp/internal/privacy"
	"minimaxdp/internal/rational"
)

func TestCDF(t *testing.T) {
	if got := CDF(0, 1); got != 0.5 {
		t.Errorf("CDF(0) = %v", got)
	}
	if got := CDF(-1e9, 1); got > 1e-9 {
		t.Errorf("CDF(−∞) = %v", got)
	}
	if got := CDF(1e9, 1); got < 1-1e-9 {
		t.Errorf("CDF(+∞) = %v", got)
	}
	// Symmetry: CDF(−x) = 1 − CDF(x).
	for _, x := range []float64{0.3, 1, 2.5} {
		if d := CDF(-x, 1.5) + CDF(x, 1.5) - 1; math.Abs(d) > 1e-12 {
			t.Errorf("symmetry broken at %v: %v", x, d)
		}
	}
}

func TestRoundedPMFIsDistribution(t *testing.T) {
	for _, eps := range []float64{0.3, 0.7, 1.5} {
		for truth := 0; truth <= 6; truth++ {
			pmf, err := RoundedPMF(truth, 6, eps)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for r, p := range pmf {
				if p < 0 {
					t.Errorf("negative mass at %d", r)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Errorf("PMF sums to %v", sum)
			}
		}
	}
	if _, err := RoundedPMF(0, 6, 0); !errors.Is(err, ErrBadScale) {
		t.Error("ε=0 accepted")
	}
	if _, err := RoundedPMF(9, 6, 1); err == nil {
		t.Error("truth out of range accepted")
	}
}

// The discretized Laplace mechanism is at least e^{−ε}-DP (rounding is
// post-processing), and its actual level is close to e^{−ε}.
func TestWorstAlphaNearTheory(t *testing.T) {
	const n = 10
	for _, eps := range []float64{0.5, 1, 2} {
		wa, err := WorstAlpha(n, eps)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Exp(-eps)
		if wa < want-1e-9 {
			t.Errorf("ε=%v: rounded Laplace α=%v below e^{−ε}=%v (post-processing violated)", eps, wa, want)
		}
		if wa > want+0.1 {
			t.Errorf("ε=%v: rounded Laplace α=%v implausibly above e^{−ε}=%v", eps, wa, want)
		}
	}
	if _, err := WorstAlpha(0, 1); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestExpectedAbsNoise(t *testing.T) {
	got, err := ExpectedAbsNoise(0.5)
	if err != nil || got != 2 {
		t.Errorf("ExpectedAbsNoise = %v, %v", got, err)
	}
	if _, err := ExpectedAbsNoise(0); !errors.Is(err, ErrBadScale) {
		t.Error("ε=0 accepted")
	}
}

func TestRoundedExpectedAbsError(t *testing.T) {
	// Clamping and rounding can only reduce the distance to the truth
	// for interior truths, so the rounded error is below 1/ε + 1/2.
	const n, truth = 20, 10
	for _, eps := range []float64{0.5, 1} {
		got, err := RoundedExpectedAbsError(truth, n, eps)
		if err != nil {
			t.Fatal(err)
		}
		if got <= 0 || got > 1/eps+0.5 {
			t.Errorf("ε=%v: rounded E|err| = %v outside (0, %v]", eps, got, 1/eps+0.5)
		}
	}
	if _, err := RoundedExpectedAbsError(0, 5, 0); err == nil {
		t.Error("ε=0 accepted")
	}
}

// Matched-privacy comparison: at α = e^{−ε} the geometric noise has
// strictly smaller expected absolute error than the continuous Laplace
// noise for every ε > 0 (2α/(1−α²) < 1/ε) — the discrete mechanism
// wastes nothing on fractional outputs.
func TestGeometricBeatsContinuousLaplace(t *testing.T) {
	for _, eps := range []float64{0.25, 0.5, 1, 2, 4} {
		alphaF := math.Exp(-eps)
		alpha, err := rational.FromFloat(alphaF)
		if err != nil {
			t.Fatal(err)
		}
		geo := rational.Float(privacy.GeometricExpectedAbsNoise(alpha))
		lap, err := ExpectedAbsNoise(eps)
		if err != nil {
			t.Fatal(err)
		}
		if geo >= lap {
			t.Errorf("ε=%v: geometric E|Z|=%v not below Laplace %v", eps, geo, lap)
		}
	}
}
