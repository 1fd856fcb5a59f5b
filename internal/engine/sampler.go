// The serving hot path: once the engine's caches are warm, every user
// request reduces to one draw from a cached mechanism row (the
// Theorem 1/§4.2 deployment story — publish G_{n,α}, let each
// consumer post-process). Draws therefore go through the dyadic alias
// kernel (sample.DyadicAlias): integer tables built *exactly* from
// the mechanism's rational rows and certified against the rational
// PMF at construction, sampled with one PRNG word, one index, one
// compare — no float math, no locks, no allocation. This file is
// fully exact-side under the floatexact analyzer (DESIGN.md §7/§11);
// the former float64 projection of the rows is gone.

package engine

import (
	"context"
	"fmt"
	"math/big"

	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/sample"
)

// Sampler draws from a fixed mechanism in O(1) per draw: one
// certified dyadic alias table per mechanism row, gathered at
// construction. Unlike mechanism.Sample (which takes a caller-owned
// *rand.Rand), Sampler methods are safe for concurrent use:
// randomness comes from the engine's GOMAXPROCS-sized shard array,
// each shard owning a lock-free splitmix64 stream, so concurrent
// draws touch no shared mutable state beyond one per-shard atomic.
type Sampler struct {
	n      int
	rows   []*sample.DyadicAlias
	shards *shardSet
	hist   *batchHist
	trace  TraceFunc // nil = tracing off
	key    string    // cache key (or "adhoc") for trace events
}

// newSampler wraps the mechanism's own per-row alias tables
// (Mechanism.AliasRow), so the sampler and Mechanism.Sample draw from
// the same certified tables.
func newSampler(m *mechanism.Mechanism, e *Engine, key string) *Sampler {
	n := m.N()
	rows := make([]*sample.DyadicAlias, n+1)
	for i := range rows {
		rows[i] = m.AliasRow(i)
	}
	return &Sampler{
		n:      n,
		rows:   rows,
		shards: e.shards,
		hist:   &e.batchSizes,
		trace:  e.trace,
		key:    key,
	}
}

// N returns the mechanism's domain bound (results lie in {0..n}).
func (s *Sampler) N() int { return s.n }

// Sample draws one released result for true input i. Cost: one shard
// pick, one atomic add on the shard's PRNG, one table lookup, one
// atomic add on the shard's draw counter. Zero allocations.
//
//dpvet:hotpath
func (s *Sampler) Sample(i int) int {
	s.check(i)
	sh := s.shards.pick()
	r := s.rows[i].SampleWord(sh.rng.Uint64())
	sh.draws.Add(1)
	return r
}

// SampleInto fills dst with len(dst) released results for true input
// i. The whole batch reserves one contiguous block of the shard's
// PRNG stream with a single atomic add, counts draws with a single
// atomic add, and allocates nothing; this is the bulk form behind
// /v1/sample?count=N and the ≥50× win over per-draw sampling.
//
//dpvet:hotpath
func (s *Sampler) SampleInto(i int, dst []int) {
	s.check(i)
	if len(dst) == 0 {
		return
	}
	sh := s.shards.pick()
	blk := sh.rng.Block(len(dst))
	row := s.rows[i]
	for k := range dst {
		dst[k] = row.SampleWord(blk.Next())
	}
	sh.draws.Add(uint64(len(dst)))
	sh.batches.Add(1)
	s.hist.observe(len(dst))
	if s.trace != nil {
		s.trace(TraceEvent{Artifact: "samplers", Key: s.key, Kind: TraceSampleBatch, Draws: len(dst)})
	}
}

// SampleN draws count released results for true input i. It is
// SampleInto with a single result-slice allocation.
func (s *Sampler) SampleN(i, count int) []int {
	if count < 0 {
		panic(fmt.Sprintf("engine: negative sample count %d", count))
	}
	out := make([]int, count)
	s.SampleInto(i, out)
	return out
}

// check is the cold bounds-failure path of the hotpath samplers.
// noinline: inlined into Sample/SampleInto, the fmt.Sprintf would
// charge its heap allocations to their lines and trip the hotpath
// escape gate.
//
//go:noinline
func (s *Sampler) check(i int) {
	if i < 0 || i > s.n {
		panic(fmt.Sprintf("engine: input %d out of range [0,%d]", i, s.n))
	}
}

// SamplerSpec selects which mechanism Engine.Sampler wraps. Set
// exactly one of:
//
//   - N and Alpha: the geometric mechanism G_{n,α}. The sampler is a
//     view of the engine's cached G (GeometricCtx): its rows are G's
//     own alias tables, so every sampler for one (n, α) shares them.
//   - Mechanism: an arbitrary mechanism. The sampler wraps that
//     mechanism's alias tables; retain the returned Sampler for reuse.
//
// Setting both (or neither) is an error.
type SamplerSpec struct {
	N         int
	Alpha     *big.Rat
	Mechanism *mechanism.Mechanism
}

// Sampler returns a concurrency-safe dyadic alias sampler over the
// mechanism selected by spec (see SamplerSpec). A sampler owns no
// tables: it is a view of the mechanism's certified per-row tables
// (Mechanism.AliasRow), which the mechanism builds once and shares
// with Mechanism.Sample and every other sampler over it. ctx is
// honored at entry and across a coalesced wait for G.
func (e *Engine) Sampler(ctx context.Context, spec SamplerSpec) (*Sampler, error) {
	if spec.Mechanism != nil {
		if spec.Alpha != nil {
			return nil, fmt.Errorf("engine: SamplerSpec sets both Mechanism and Alpha")
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return newSampler(spec.Mechanism, e, "adhoc"), nil
	}
	g, err := e.GeometricCtx(ctx, spec.N, spec.Alpha)
	if err != nil {
		return nil, err
	}
	return newSampler(g, e, geometricKey(spec.N, spec.Alpha)), nil
}
