// Dyadic alias kernel: the one sampler of an exact mechanism row.
//
// Every draw from a rational row — mechanism.Sample, the release
// cascade of Algorithm 1, the engine's /v1/sample path — goes through
// a DyadicAlias, which gives three properties at once: (1) a draw
// that is one PRNG word, one index, one compare — no float math, no
// division, no allocation; (2) tables derived *exactly* from the
// mechanism's rational PMF, so the sampled law is certified against
// the paper's exact artifacts rather than against a float64
// projection of them; (3) a per-outcome error bound that is a theorem
// of the construction, checked at build time, not a tolerance that
// happens to hold.
//
// DyadicAlias delivers all three. Construction runs Walker's alias
// algorithm in exact big.Rat arithmetic (so the intermediate "scaled
// probability" bookkeeping is exact — in exact arithmetic the
// small/large worklists empty simultaneously and every leftover slot
// holds probability exactly 1), then quantizes each slot's acceptance
// probability to a dyadic fixed-point threshold: an integer t in
// [0, 2^b] with b = 64−k bits, where the table has 2^k slots. A draw
// consumes one uint64 w: the low k bits select the slot, the high b
// bits form the uniform u, and u < t accepts the slot's primary
// outcome or falls through to its alias. Because 2^k slots times 2^b
// threshold resolution is exactly 2^64, the induced PMF of the
// integer tables is itself an exact rational with denominator 2^64,
// and the constructor certifies |induced(j) − p(j)| ≤ 2^−b for every
// outcome j before returning. Zero-weight outcomes are exact: they
// are never emitted at all (their slots quantize to threshold 0 and
// no slot ever aliases to them).
package sample

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"sync/atomic"
)

// ErrBadWeights is returned when a sampler is built from an empty,
// negative, or all-zero weight vector.
var ErrBadWeights = errors.New("sample: weights must be non-negative with positive sum")

// splitmixGamma is the Weyl increment of the splitmix64 generator
// (Steele, Lea & Flood 2014): the odd constant closest to 2^64/φ.
const splitmixGamma = 0x9E3779B97F4A7C15

// Mix64 is the splitmix64 output mix: a bijective avalanche over
// uint64. Applied to a Weyl sequence state + k·gamma it yields the
// splitmix64 stream; it is also a fine standalone integer hash.
func Mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// AtomicSplitmix is a lock-free splitmix64 PRNG safe for concurrent
// use: the generator state is a Weyl counter advanced by a single
// atomic add, so concurrent callers each observe a distinct counter
// value and therefore a distinct output word — no locks, no torn
// state, no sync.Pool. The zero value is a valid generator seeded at
// stream (0,0); call Seed or SeedStream for reproducible streams.
//
// Unlike *rand.Rand (see NewRand), an AtomicSplitmix may be shared
// freely between goroutines: the engine's samplers all draw from one,
// and the atomic add keeps concurrent draws correct without a lock.
type AtomicSplitmix struct {
	state atomic.Uint64
}

// Seed positions the generator deterministically for seed.
func (p *AtomicSplitmix) Seed(seed int64) { p.SeedStream(seed, 0) }

// SeedStream positions the generator at stream `stream` of the given
// seed. All streams of one seed walk the same 2^64-cycle Weyl
// sequence at phase offsets chosen by a second avalanche, so a fixed
// (seed, stream) pair always reproduces the same word sequence and
// distinct streams do not overlap within any practical horizon
// (offsets are ≫ 2^32 counter steps apart for all small stream sets).
func (p *AtomicSplitmix) SeedStream(seed int64, stream uint64) {
	p.state.Store(Mix64(uint64(seed)) + Mix64(stream*2+1)*splitmixGamma)
}

// Uint64 returns the next word of the stream. One atomic add plus a
// five-instruction mix; safe for concurrent use.
//
//dpvet:hotpath
func (p *AtomicSplitmix) Uint64() uint64 {
	return Mix64(p.state.Add(splitmixGamma))
}

// Block reserves n consecutive words of the stream with a single
// atomic add and returns an iterator over them. The reservation is
// exclusive: concurrent Block and Uint64 callers never observe the
// reserved counter values. n must be positive.
//
//dpvet:hotpath
func (p *AtomicSplitmix) Block(n int) SplitmixBlock {
	if n <= 0 {
		panicBlockSize(n)
	}
	end := p.state.Add(uint64(n) * splitmixGamma)
	return SplitmixBlock{next: end - uint64(n-1)*splitmixGamma, left: n}
}

// panicBlockSize keeps the cold failure path out of Block: inlined,
// the fmt.Sprintf would charge a heap allocation to Block's own lines
// and trip the hotpath escape gate. It takes the offending size as a
// primitive because varargs boxing happens at the caller.
//
//go:noinline
func panicBlockSize(n int) {
	panic(fmt.Sprintf("sample: Block needs n > 0, got %d", n))
}

// SplitmixBlock iterates a reserved block of splitmix64 words. It is
// a value type owned by one goroutine; Next must be called at most
// the reserved count of times.
type SplitmixBlock struct {
	next uint64
	left int
}

// Next returns the block's next word.
//
//dpvet:hotpath
func (b *SplitmixBlock) Next() uint64 {
	if b.left <= 0 {
		panicExhausted()
	}
	b.left--
	v := Mix64(b.next)
	b.next += splitmixGamma
	return v
}

// panicExhausted is the cold overdraw path, kept out of Next so the
// hotpath escape gate sees an allocation-free body.
//
//go:noinline
func panicExhausted() {
	panic("sample: SplitmixBlock exhausted")
}

// MaxDyadicOutcomes bounds the weight-vector length accepted by
// NewDyadicAlias. 2^24 outcomes leave b = 64−24 = 40 threshold bits,
// keeping the certified per-outcome error below 2^−40 even at the
// maximum table size; real mechanism rows are orders of magnitude
// smaller.
const MaxDyadicOutcomes = 1 << 24

// DyadicAlias samples a fixed discrete distribution in O(1) from a
// single uint64: slot index from the low bits, threshold compare on
// the high bits. Tables are built exactly from rational weights and
// certified at construction; see the package comment at the top of
// this file. The struct is immutable after construction and safe for
// concurrent use (draws read the tables and mutate nothing).
type DyadicAlias struct {
	k       uint     // log2 of the table length
	mask    uint64   // table length − 1, selects the slot
	thresh  []uint64 // acceptance threshold for u = w>>k, scale 2^(64−k)
	outcome []int32  // primary outcome per slot
	alias   []int32  // fallback outcome per slot
}

// NewDyadicAlias builds certified integer alias tables from exact
// non-negative weights (normalization is internal; weights need not
// sum to 1). It returns ErrBadWeights for an empty, negative, or
// all-zero vector, and an error if the vector exceeds
// MaxDyadicOutcomes. The returned kernel's induced PMF deviates from
// the normalized weights by at most 2^−(64−k) per outcome, where 2^k
// is the table length (the smallest power of two ≥ len(weights)) —
// verified exactly, in rational arithmetic, before returning.
func NewDyadicAlias(weights []*big.Rat) (*DyadicAlias, error) {
	n := len(weights)
	if n == 0 || n > MaxDyadicOutcomes {
		if n == 0 {
			return nil, ErrBadWeights
		}
		return nil, fmt.Errorf("sample: %d outcomes exceed MaxDyadicOutcomes=%d", n, MaxDyadicOutcomes)
	}
	total := new(big.Rat)
	for i, w := range weights {
		if w == nil || w.Sign() < 0 {
			return nil, fmt.Errorf("sample: weight %d: %w", i, ErrBadWeights)
		}
		total.Add(total, w)
	}
	if total.Sign() <= 0 {
		return nil, ErrBadWeights
	}

	// Table geometry: 2^k slots (outcomes padded with zero weight up
	// to the next power of two), b = 64−k threshold bits.
	k := uint(0)
	if n > 1 {
		k = uint(bits.Len(uint(n - 1)))
	}
	m := 1 << k
	b := 64 - k

	// Exact Walker construction: scaled[i] = m·w_i/total. The loop
	// invariant Σ scaled over unfinalized slots = #unfinalized holds
	// exactly, so when either worklist empties the other holds only
	// slots with scaled probability exactly 1.
	scaled := make([]*big.Rat, m)
	mRat := new(big.Rat).SetInt64(int64(m))
	for i := 0; i < m; i++ {
		if i < n {
			scaled[i] = new(big.Rat).Mul(weights[i], mRat)
			scaled[i].Quo(scaled[i], total)
		} else {
			scaled[i] = new(big.Rat)
		}
	}
	one := new(big.Rat).SetInt64(1)
	small := make([]int32, 0, m)
	large := make([]int32, 0, m)
	for i := m - 1; i >= 0; i-- {
		if scaled[i].Cmp(one) < 0 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}

	d := &DyadicAlias{
		k:       k,
		mask:    uint64(m - 1),
		thresh:  make([]uint64, m),
		outcome: make([]int32, m),
		alias:   make([]int32, m),
	}
	for i := 0; i < m; i++ {
		out := int32(i)
		if i >= n {
			out = 0 // padding slot; threshold 0 below, never emitted
		}
		d.outcome[i] = out
		d.alias[i] = out
	}

	// full is the threshold meaning "always accept": 2^b, except at
	// k=0 where 2^64 does not fit a uint64 and ^0 is used instead —
	// sound because a full slot's alias equals its outcome, so the
	// one-in-2^64 fall-through returns the same value.
	full := ^uint64(0)
	if k > 0 {
		full = uint64(1) << b
	}
	tmp := new(big.Int)
	quantize := func(p *big.Rat) uint64 {
		// floor(p·2^b): exact integer arithmetic, p ∈ [0,1).
		tmp.Lsh(p.Num(), b)
		tmp.Quo(tmp, p.Denom())
		return tmp.Uint64()
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		d.thresh[s] = quantize(scaled[s])
		d.alias[s] = d.outcome[l]
		// scaled[l] −= 1 − scaled[s], exactly.
		scaled[l].Sub(scaled[l], one)
		scaled[l].Add(scaled[l], scaled[s])
		if scaled[l].Cmp(one) < 0 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Exact arithmetic ⇒ every leftover slot has scaled == 1; both
	// loops are retained for symmetry and defensive completeness.
	for _, i := range large {
		d.thresh[i] = full
	}
	for _, i := range small {
		d.thresh[i] = full
	}

	if err := d.certify(weights, total, n); err != nil {
		return nil, err
	}
	return d, nil
}

// certify recomputes the PMF induced by the integer tables — an exact
// rational with denominator 2^64, since each slot contributes t to
// its outcome and 2^b−t to its alias and 2^k·2^b = 2^64 — and
// verifies |induced(j) − p(j)| ≤ 2^−b for every outcome j. The bound
// is a theorem (each slot's quantization error is < 1 threshold unit
// and at most 2^k slots reference one outcome), so a failure here
// means the construction itself is broken, not the input.
func (d *DyadicAlias) certify(weights []*big.Rat, total *big.Rat, n int) error {
	induced := d.InducedPMF(n)
	b := 64 - d.k
	bound := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), b))
	p := new(big.Rat)
	dev := new(big.Rat)
	for j := 0; j < n; j++ {
		p.Quo(weights[j], total)
		dev.Sub(induced[j], p)
		dev.Abs(dev)
		if dev.Cmp(bound) > 0 {
			return fmt.Errorf("sample: dyadic certification failed at outcome %d: |%s − %s| > 2^−%d",
				j, induced[j].RatString(), p.RatString(), b)
		}
		if weights[j].Sign() == 0 && induced[j].Sign() != 0 {
			return fmt.Errorf("sample: dyadic certification failed: zero-weight outcome %d has induced mass %s",
				j, induced[j].RatString())
		}
	}
	return nil
}

// InducedPMF returns the exact PMF the integer tables sample, as
// rationals with denominator 2^64, over n outcomes. It is the ground
// truth for the construction-time certificate and for goodness-of-fit
// tests; draws from SampleWord on uniform words follow exactly this
// law (not merely approximately — the tables are the distribution).
func (d *DyadicAlias) InducedPMF(n int) []*big.Rat {
	b := 64 - d.k
	full := new(big.Int).Lsh(big.NewInt(1), b)
	acc := make([]*big.Int, n)
	for j := range acc {
		acc[j] = new(big.Int)
	}
	t := new(big.Int)
	rest := new(big.Int)
	for s := range d.thresh {
		t.SetUint64(d.thresh[s])
		if t.Cmp(full) > 0 { // the k=0 ^0 sentinel caps at full
			t.Set(full)
		}
		acc[d.outcome[s]].Add(acc[d.outcome[s]], t)
		rest.Sub(full, t)
		acc[d.alias[s]].Add(acc[d.alias[s]], rest)
	}
	denom := new(big.Int).Lsh(big.NewInt(1), 64)
	out := make([]*big.Rat, n)
	for j := range out {
		out[j] = new(big.Rat).SetFrac(new(big.Int).Set(acc[j]), denom)
	}
	return out
}

// SampleWord maps one uniform uint64 to an outcome: slot from the low
// k bits, acceptance compare of the high 64−k bits against the slot's
// dyadic threshold. Zero allocations, no float math, no divisions.
//
//dpvet:hotpath
func (d *DyadicAlias) SampleWord(w uint64) int {
	s := w & d.mask
	if w>>d.k < d.thresh[s] {
		return int(d.outcome[s])
	}
	return int(d.alias[s])
}

// Sample draws one outcome from one word of rng; the form of
// SampleWord for callers holding a *rand.Rand (mechanism.Sample).
// Concurrent hot paths should feed SampleWord from an AtomicSplitmix
// block instead.
func (d *DyadicAlias) Sample(rng interface{ Uint64() uint64 }) int {
	return d.SampleWord(rng.Uint64())
}
