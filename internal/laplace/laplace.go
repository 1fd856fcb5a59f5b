// Package laplace implements the continuous Laplace mechanism of
// Dwork, McSherry, Nissim & Smith (TCC 2006) — the paper's reference
// [5], of which the geometric mechanism is the discrete analogue — as
// a comparison baseline.
//
// For count queries (sensitivity 1) the Laplace mechanism adds
// Lap(0, 1/ε) noise to the true result. To release integers it is
// conventionally rounded to the nearest integer and clamped to [0, n];
// RoundedPMF gives that discretized mechanism's exact-within-float64
// output distribution via CDF differences, so its differential privacy
// and utility can be measured against the geometric mechanism. The
// package computes distributions only; nothing here draws noise.
//
// The headline comparison (experiment ELap): at matched privacy
// α = e^{−ε}, the geometric mechanism's expected absolute error is
// strictly below the continuous Laplace noise magnitude, and the
// rounded Laplace mechanism is never better than the tailored optimum
// that the geometric mechanism attains — the paper's optimality made
// quantitative against the classical baseline.
package laplace

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadScale is returned for non-positive noise scales.
var ErrBadScale = errors.New("laplace: scale must be positive")

// CDF returns the Lap(0,b) cumulative distribution function at x.
func CDF(x, b float64) float64 {
	if x < 0 {
		return 0.5 * math.Exp(x/b)
	}
	return 1 - 0.5*math.Exp(-x/b)
}

// RoundedPMF returns the output distribution of the rounded-and-
// clamped Laplace mechanism for the given true result: Pr[out = r] is
// the Lap(truth, 1/ε) mass of the rounding cell [r−1/2, r+1/2],
// with the boundary cells absorbing the clamped tails.
func RoundedPMF(truth, n int, epsilon float64) ([]float64, error) {
	if epsilon <= 0 {
		return nil, fmt.Errorf("%w: ε = %v", ErrBadScale, epsilon)
	}
	if n < 1 || truth < 0 || truth > n {
		return nil, fmt.Errorf("laplace: truth %d / n %d invalid", truth, n)
	}
	b := 1 / epsilon
	pmf := make([]float64, n+1)
	for r := 0; r <= n; r++ {
		lo := float64(r) - 0.5 - float64(truth)
		hi := float64(r) + 0.5 - float64(truth)
		switch r {
		case 0:
			pmf[r] = CDF(hi, b)
		case n:
			pmf[r] = tailMass(lo, b)
		default:
			pmf[r] = cellMass(lo, hi, b)
		}
	}
	return pmf, nil
}

// cellMass returns Pr[lo < Lap(0,b) ≤ hi] in a cancellation-free form:
// naive CDF differences lose all precision in the far right tail
// (1 − tiny minus 1 − tiny), which corrupts the PMF ratios that the
// privacy-level computation depends on.
func cellMass(lo, hi, b float64) float64 {
	switch {
	case hi <= 0:
		return 0.5 * (math.Exp(hi/b) - math.Exp(lo/b))
	case lo >= 0:
		return 0.5 * (math.Exp(-lo/b) - math.Exp(-hi/b))
	default:
		return 1 - 0.5*(math.Exp(lo/b)+math.Exp(-hi/b))
	}
}

// tailMass returns Pr[Lap(0,b) > lo] without cancellation.
func tailMass(lo, b float64) float64 {
	if lo >= 0 {
		return 0.5 * math.Exp(-lo/b)
	}
	return 1 - 0.5*math.Exp(lo/b)
}

// ExpectedAbsNoise returns E|Lap(0, 1/ε)| = 1/ε, the continuous
// mechanism's expected absolute error before rounding.
func ExpectedAbsNoise(epsilon float64) (float64, error) {
	if epsilon <= 0 {
		return 0, fmt.Errorf("%w: ε = %v", ErrBadScale, epsilon)
	}
	return 1 / epsilon, nil
}

// RoundedExpectedAbsError returns the exact-within-float64 expected
// absolute error of the rounded-and-clamped mechanism at the given
// true result.
func RoundedExpectedAbsError(truth, n int, epsilon float64) (float64, error) {
	pmf, err := RoundedPMF(truth, n, epsilon)
	if err != nil {
		return 0, err
	}
	e := 0.0
	for r, p := range pmf {
		e += p * math.Abs(float64(r-truth))
	}
	return e, nil
}

// WorstAlpha returns the empirical-free differential-privacy level of
// the rounded-and-clamped mechanism on {0..n}: the minimum over
// adjacent truths and outputs of the PMF ratio (both directions),
// i.e. the largest α for which the discretized mechanism is α-DP.
func WorstAlpha(n int, epsilon float64) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("laplace: n must be ≥ 1, got %d", n)
	}
	worst := 1.0
	prev, err := RoundedPMF(0, n, epsilon)
	if err != nil {
		return 0, err
	}
	for i := 1; i <= n; i++ {
		cur, err := RoundedPMF(i, n, epsilon)
		if err != nil {
			return 0, err
		}
		for r := 0; r <= n; r++ {
			a, b := prev[r], cur[r]
			if a == 0 && b == 0 {
				continue
			}
			if a == 0 || b == 0 {
				return 0, nil
			}
			ratio := a / b
			if ratio > 1 {
				ratio = 1 / ratio
			}
			if ratio < worst {
				worst = ratio
			}
		}
		prev = cur
	}
	return worst, nil
}
