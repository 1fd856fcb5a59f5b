package sample

import (
	"math"
	"testing"
)

func TestGeometricDistribution(t *testing.T) {
	rng := NewRand(1)
	const alpha = 0.5
	const trials = 200000
	counts := CountSamples(trials, 12, func() int { return Geometric(alpha, rng) })
	pmf := EmpiricalPMF(counts)
	for k := 0; k < 8; k++ {
		want := (1 - alpha) * math.Pow(alpha, float64(k))
		if diff := math.Abs(pmf[k] - want); diff > 0.01 {
			t.Errorf("Pr[G=%d] = %.4f, want %.4f", k, pmf[k], want)
		}
	}
}

func TestGeometricPanicsOnBadAlpha(t *testing.T) {
	for _, a := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("α=%v did not panic", a)
				}
			}()
			Geometric(a, NewRand(1))
		}()
	}
}

func TestTwoSidedGeometricLaw(t *testing.T) {
	rng := NewRand(7)
	const alpha = 0.4
	const trials = 300000
	const span = 10 // check z in [-span, span]
	counts := make(map[int]int)
	for i := 0; i < trials; i++ {
		counts[TwoSidedGeometric(alpha, rng)]++
	}
	norm := (1 - alpha) / (1 + alpha)
	for z := -span; z <= span; z++ {
		want := norm * math.Pow(alpha, math.Abs(float64(z)))
		got := float64(counts[z]) / trials
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Pr[Z=%d] = %.4f, want %.4f", z, got, want)
		}
	}
}

func TestEmpiricalPMF(t *testing.T) {
	pmf := EmpiricalPMF([]int{1, 3, 0})
	if pmf[0] != 0.25 || pmf[1] != 0.75 || pmf[2] != 0 {
		t.Errorf("EmpiricalPMF = %v", pmf)
	}
	zero := EmpiricalPMF([]int{0, 0})
	if zero[0] != 0 || zero[1] != 0 {
		t.Errorf("zero-count PMF = %v", zero)
	}
}

func TestCountSamplesClamps(t *testing.T) {
	i := -5
	counts := CountSamples(11, 3, func() int { i++; return i })
	// Values -4..6 clamp into [0,2].
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 11 {
		t.Errorf("total = %d", total)
	}
	if counts[0] < 4 || counts[2] < 4 {
		t.Errorf("clamping wrong: %v", counts)
	}
}

func TestReproducibility(t *testing.T) {
	a := NewRand(1234)
	b := NewRand(1234)
	for i := 0; i < 100; i++ {
		if TwoSidedGeometric(0.5, a) != TwoSidedGeometric(0.5, b) {
			t.Fatal("same seed, different streams")
		}
	}
}
