// Package sample provides the library's randomness substrate:
// reproducible RNG streams, samplers for the unrestricted two-sided
// geometric noise of Definition 1, and the certified dyadic alias
// kernel (dyadic.go) through which every draw from an exact mechanism
// row goes.
package sample

import (
	"fmt"
	"math"
	"math/rand"
)

// NewRand returns a deterministic PRNG for the given seed. All
// experiment binaries accept a seed so every reported number is
// reproducible.
//
// The returned *rand.Rand is NOT safe for concurrent use: its
// internal state is mutated on every draw with no synchronization.
// Give each goroutine its own seeded instance, or route concurrent
// sampling through internal/engine's sampler pool, which keeps one
// pooled PRNG per borrowing goroutine (sync.Pool) precisely so no
// two goroutines ever share a stream.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Geometric draws a geometric random variable on {0,1,2,...} with
// success parameter 1−alpha, i.e. Pr[G = k] = (1−α)·α^k, via
// inversion. alpha must lie in (0,1).
func Geometric(alpha float64, rng *rand.Rand) int {
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("sample: Geometric needs α in (0,1), got %v", alpha))
	}
	u := rng.Float64()
	for u == 0 { // log(0) guard; probability 0 events resampled
		u = rng.Float64()
	}
	return int(math.Floor(math.Log(u) / math.Log(alpha)))
}

// TwoSidedGeometric draws Z with Pr[Z = z] = (1−α)/(1+α)·α^{|z|} for
// every integer z (Definition 1), as the difference of two independent
// geometric variables: if G₁,G₂ ~ Geom(1−α) then G₁−G₂ has exactly
// this two-sided law.
func TwoSidedGeometric(alpha float64, rng *rand.Rand) int {
	return Geometric(alpha, rng) - Geometric(alpha, rng)
}

// EmpiricalPMF converts draw counts into an empirical probability
// vector.
func EmpiricalPMF(counts []int) []float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// CountSamples draws trials samples from fn and tallies outcomes into
// a histogram of size buckets; outcomes outside [0, buckets) are
// clamped to the nearest end.
func CountSamples(trials, buckets int, fn func() int) []int {
	counts := make([]int, buckets)
	for t := 0; t < trials; t++ {
		v := fn()
		if v < 0 {
			v = 0
		}
		if v >= buckets {
			v = buckets - 1
		}
		counts[v]++
	}
	return counts
}
