package engine

import "time"

// TraceKind labels one span event on the engine's serving path.
type TraceKind string

// Span events emitted per request and per computation. A fully
// cache-warm request emits a single TraceHit; a cold request emits
// TraceMiss, TraceSolveStart, and TraceSolveDone on the computing
// goroutine, plus TraceCoalesced on every request that shared the
// computation without starting it.
const (
	TraceHit        TraceKind = "hit"         // served from cache
	TraceMiss       TraceKind = "miss"        // not cached; a computation will run
	TraceCoalesced  TraceKind = "coalesce"    // shared another request's computation
	TraceSolveStart TraceKind = "solve-start" // computation begins (after admission)
	TraceSolveDone  TraceKind = "solve-done"  // computation finished; Duration/Err set
	TraceShed       TraceKind = "shed"        // rejected: solve semaphore saturated

	// LP-backed computations (tailored, interactions) additionally
	// emit exactly one of the following after the solve returns,
	// reporting which path of the float-guided exact solver served it.
	TraceWarmStartHit      TraceKind = "warmstart-hit"      // crossover certified the float basis; zero exact pivots
	TraceWarmStartResume   TraceKind = "warmstart-resume"   // basis needed exact pivots to finish, no restart
	TraceWarmStartFallback TraceKind = "warmstart-fallback" // full exact two-phase solve ran from scratch

	// Disk-store traffic (Config.Store). A store hit replaces the
	// solve entirely: the request emits TraceMiss then TraceStoreHit,
	// and no solve-start/solve-done pair. A computed artifact's
	// write-back emits TraceStoreWrite after TraceSolveDone; a failed
	// load-decode or write emits TraceStoreError and the request
	// proceeds as if the store did not exist.
	TraceStoreHit   TraceKind = "store-hit"   // loaded and verified from the disk store
	TraceStoreWrite TraceKind = "store-write" // computed artifact persisted to the disk store
	TraceStoreError TraceKind = "store-error" // disk store load/decode/write failure (non-fatal)

	// Sampler batch draws (Sampler.SampleInto / SampleN) emit one
	// event per batch on the drawing goroutine, with Draws set to the
	// batch size. Single-draw Sample calls are deliberately untraced:
	// at sub-100ns per draw even a nil-check-plus-call hook would
	// dominate the operation being traced.
	TraceSampleBatch TraceKind = "sample-batch"
)

// TraceEvent is one span event. Events carry the artifact class
// ("tailored", "mechanisms", ...; "samplers" on TraceSampleBatch,
// which names the emitter, not a cache class), the cache key, and — for
// TraceSolveDone — the compute duration and the error (nil on
// success; context.Canceled when Engine.Close stopped the solve).
type TraceEvent struct {
	Artifact string
	Key      string
	Kind     TraceKind
	Duration time.Duration
	Draws    int // batch size, set only for TraceSampleBatch
	Err      error
}

// TraceFunc receives every span event of an Engine. Hooks are invoked
// synchronously on the serving goroutine — including the cache-hit
// fast path — so they must be cheap and safe for concurrent use;
// forward to a channel or an append-only buffer for anything heavier.
type TraceFunc func(TraceEvent)
