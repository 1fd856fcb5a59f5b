package engine

import (
	"context"
	"errors"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minimaxdp/internal/consumer"
	"minimaxdp/internal/loss"
)

// --- flightGroup unit tests ----------------------------------------------
//
// These drive the group with hand-built fns blocking on channels, so
// every interleaving the engine relies on is forced deterministically
// rather than raced against real LP solve times.

// joinSignal is a context that reports the first call of its Done
// method. flightGroup.do calls Done only once it has registered or
// joined the call, so a closed joined channel proves the caller is
// waiting on the computation. Engine methods reach do without calling
// Done, so the signal works through them too.
type joinSignal struct {
	context.Context
	once   sync.Once
	joined chan struct{}
}

func newJoinSignal(ctx context.Context) *joinSignal {
	return &joinSignal{Context: ctx, joined: make(chan struct{})}
}

func (j *joinSignal) Done() <-chan struct{} {
	j.once.Do(func() { close(j.joined) })
	return j.Context.Done()
}

type flightResult struct {
	val     any
	started bool
	err     error
}

// doAsync runs g.do on its own goroutine.
func doAsync(ctx context.Context, g *flightGroup, fn func(context.Context) (any, error)) <-chan flightResult {
	ch := make(chan flightResult, 1)
	go func() {
		v, s, err := g.do(ctx, "k", fn)
		ch <- flightResult{v, s, err}
	}()
	return ch
}

// blockingFn returns a computation that reports its start on started,
// then returns "result" once release closes or root's error once root
// is canceled.
func blockingFn(started, release chan struct{}) func(context.Context) (any, error) {
	return func(solveCtx context.Context) (any, error) {
		close(started)
		select {
		case <-release:
			return "result", nil
		case <-solveCtx.Done():
			return nil, solveCtx.Err()
		}
	}
}

// TestFlightDetachedWaiterDoesNotKillSolve: two waiters share a
// computation; the one that cancels detaches with its own ctx.Err()
// while the computation keeps running for the other.
func TestFlightDetachedWaiterDoesNotKillSolve(t *testing.T) {
	g := flightGroup{root: context.Background()}
	started, release := make(chan struct{}), make(chan struct{})
	fn := blockingFn(started, release)

	ch1 := doAsync(context.Background(), &g, fn)
	<-started

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	ch2 := doAsync(ctx2, &g, fn)
	cancel2()
	r2 := <-ch2
	if !errors.Is(r2.err, context.Canceled) {
		t.Fatalf("detached waiter err = %v, want context.Canceled", r2.err)
	}
	if r2.started {
		t.Error("second caller reported started=true, want coalesced")
	}

	close(release)
	r1 := <-ch1
	if r1.err != nil || r1.val != "result" || !r1.started {
		t.Fatalf("remaining waiter = (%v, %v, %v), want (result, true, nil)", r1.val, r1.started, r1.err)
	}
}

// TestFlightNewCallerJoinsRunningCall: a computation whose only
// caller gave up keeps running under the group's root, and a new
// caller for the key joins it instead of starting a second one.
func TestFlightNewCallerJoinsRunningCall(t *testing.T) {
	g := flightGroup{root: context.Background()}
	started, release := make(chan struct{}), make(chan struct{})
	var runs atomic.Int32
	fn := func(solveCtx context.Context) (any, error) {
		runs.Add(1)
		return blockingFn(started, release)(solveCtx)
	}

	ctx, cancel := context.WithCancel(context.Background())
	first := doAsync(ctx, &g, fn)
	<-started
	cancel()
	if r := <-first; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("sole waiter err = %v, want context.Canceled", r.err)
	}

	retryCtx := newJoinSignal(context.Background())
	retry := doAsync(retryCtx, &g, fn)
	<-retryCtx.joined
	close(release)
	r := <-retry
	if r.err != nil || r.val != "result" || r.started {
		t.Fatalf("retry = (%v, started %v, %v), want the running call's (result, false, nil)", r.val, r.started, r.err)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("computation ran %d times, want 1", n)
	}
}

// TestFlightCloseStopsRunningAndNewCalls: closeAndWait returns once
// the running call has stopped on root's cancellation, and the group
// refuses new calls with root's error.
func TestFlightCloseStopsRunningAndNewCalls(t *testing.T) {
	root, stop := context.WithCancel(context.Background())
	g := flightGroup{root: root}
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	ch := doAsync(context.Background(), &g, blockingFn(started, release))
	<-started

	stop()
	g.closeAndWait()
	if r := <-ch; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("running call err = %v, want context.Canceled", r.err)
	}
	_, _, err := g.do(context.Background(), "k", func(context.Context) (any, error) {
		t.Error("a closed group started a computation")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("do after close err = %v, want context.Canceled", err)
	}
}

// TestFlightSequentialCallsStartFresh: a call that has returned is
// retired, so the same caller's next request for the key must start a
// new computation. Joining the finished call instead would count it as
// coalesced, never as a cache miss.
func TestFlightSequentialCallsStartFresh(t *testing.T) {
	g := flightGroup{root: context.Background()}
	fn := func(context.Context) (any, error) { return 1, nil }
	for i := 0; i < 1000; i++ {
		if _, started, err := g.do(context.Background(), "k", fn); err != nil || !started {
			t.Fatalf("call %d: started = %v, err = %v; want a fresh computation", i, started, err)
		}
	}
}

// --- engine-level lifetime -----------------------------------------------

func absConsumer() *consumer.Consumer {
	return &consumer.Consumer{Name: "test", Loss: loss.Absolute{}}
}

// newEngine builds an engine that is closed when the test ends.
func newEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	t.Cleanup(e.Close)
	return e
}

// solveHold is a trace hook that parks the first solve of one
// artifact class at solve-start, holding its solve slot, until the
// test calls free.
type solveHold struct {
	artifact string
	started  chan struct{}
	release  chan struct{}
	first    sync.Once
	freed    sync.Once
}

// newHeldEngine builds a closing engine whose first solve of artifact
// is held. The hold is freed at cleanup before the engine closes, so
// a failing test cannot leave Close waiting on it.
func newHeldEngine(t *testing.T, artifact string, cfg Config) (*Engine, *solveHold) {
	t.Helper()
	h := &solveHold{artifact: artifact, started: make(chan struct{}), release: make(chan struct{})}
	cfg.Trace = h.hook
	e := newEngine(t, cfg)
	t.Cleanup(h.free)
	return e, h
}

func (h *solveHold) hook(ev TraceEvent) {
	if ev.Kind != TraceSolveStart || ev.Artifact != h.artifact {
		return
	}
	first := false
	h.first.Do(func() { first = true; close(h.started) })
	if first {
		<-h.release
	}
}

func (h *solveHold) free() { h.freed.Do(func() { close(h.release) }) }

// tailoredAsync runs TailoredCtx on its own goroutine.
func tailoredAsync(ctx context.Context, e *Engine, n int, alpha *big.Rat) <-chan error {
	ch := make(chan error, 1)
	go func() {
		_, err := e.TailoredCtx(ctx, absConsumer(), n, alpha)
		ch <- err
	}()
	return ch
}

// TestTailoredCtxCanceledClientSolveIsCached is the lifetime
// contract: a client that gives up mid-solve gets context.Canceled at
// once, the solve runs on and is cached, and the retry is a hit.
func TestTailoredCtxCanceledClientSolveIsCached(t *testing.T) {
	e, hold := newHeldEngine(t, "tailored", Config{})
	alpha := big.NewRat(1, 2)

	ctx, cancel := context.WithCancel(context.Background())
	errc := tailoredAsync(ctx, e, 6, alpha)
	<-hold.started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled TailoredCtx err = %v, want context.Canceled", err)
	}
	hold.free()
	// A filled tailored cache means the abandoned solve has been cached.
	waitFor(t, func() bool { return e.Metrics().Tailored.Cache.Size == 1 })

	got, err := e.TailoredCtx(context.Background(), absConsumer(), 6, alpha)
	if err != nil || got == nil || got.Loss == nil {
		t.Fatalf("retry = (%v, %v), want the cached solve", got, err)
	}
	m := e.Metrics()
	if c := m.Tailored.Cache; c.Misses != 1 || c.Hits != 1 || c.Size != 1 {
		t.Errorf("tailored cache = %+v, want 1 miss, 1 hit, size 1", c)
	}
	if m.LP.Solves != 1 {
		t.Errorf("LP solves = %d, want 1", m.LP.Solves)
	}
}

// TestTailoredCtxTimedOutCallerJoinedByRetry: a retry that arrives
// while the timed-out caller's solve still runs joins it: one miss,
// one coalesced request, and the in-flight gauge drains to 0.
func TestTailoredCtxTimedOutCallerJoinedByRetry(t *testing.T) {
	e, hold := newHeldEngine(t, "tailored", Config{})
	alpha := big.NewRat(1, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := e.TailoredCtx(ctx, absConsumer(), 6, alpha); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out TailoredCtx err = %v, want context.DeadlineExceeded", err)
	}
	<-hold.started

	retryCtx := newJoinSignal(context.Background())
	retry := tailoredAsync(retryCtx, e, 6, alpha)
	<-retryCtx.joined
	hold.free()
	if err := <-retry; err != nil {
		t.Fatalf("retry: %v", err)
	}
	m := e.Metrics()
	if c := m.Tailored.Cache; c.Misses != 1 || c.Coalesced != 1 || c.Size != 1 {
		t.Errorf("tailored cache = %+v, want 1 miss, 1 coalesced, size 1", c)
	}
	waitFor(t, func() bool { return e.Metrics().InFlightSolves == 0 })
}

// TestTailoredCtxCancelAbortsLargeSolvePromptly asserts Close stops a
// running solve through the LP pivot checkpoints: the n=14 solve is
// held at solve-start until Close has canceled the engine's root, and
// Close must then return within LP construction plus one pivot. The
// caller gets context.Canceled, nothing is cached, no computation
// goroutine is left, and a later miss fails instead of solving.
func TestTailoredCtxCancelAbortsLargeSolvePromptly(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n solve abort test skipped in -short mode")
	}
	goroutines := runtime.NumGoroutine()
	e, hold := newHeldEngine(t, "tailored", Config{})
	errc := tailoredAsync(context.Background(), e, 14, big.NewRat(1, 2))
	<-hold.started

	start := time.Now()
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	<-e.tailored.flight.root.Done()
	hold.free()
	<-closed
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("Close took %v, want prompt abort", elapsed)
	}
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	m := e.Metrics()
	if m.Tailored.Cache.Size != 0 || m.InFlightSolves != 0 {
		t.Errorf("after Close: cache size %d, in flight %d, want 0 and 0", m.Tailored.Cache.Size, m.InFlightSolves)
	}
	if _, err := e.TailoredCtx(context.Background(), absConsumer(), 4, big.NewRat(1, 2)); !errors.Is(err, context.Canceled) {
		t.Errorf("miss after Close err = %v, want context.Canceled", err)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= goroutines })
}

// TestPreCanceledCtxShortCircuits: an already-canceled context never
// reaches the miss path.
func TestPreCanceledCtxShortCircuits(t *testing.T) {
	e := newEngine(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.TailoredCtx(ctx, absConsumer(), 6, big.NewRat(1, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	m := e.Metrics().Tailored
	if m.Cache.Misses != 0 {
		t.Errorf("pre-canceled request counted a miss: %d", m.Cache.Misses)
	}
	if m.Requests != 1 {
		t.Errorf("requests = %d, want 1", m.Requests)
	}
}

// --- load shedding --------------------------------------------------------

// TestEngineShedsWhenSaturated: with the single solve slot held, a
// second solve for a different key fails fast with ErrSaturated and is
// counted, while the occupant is undisturbed. Two other tailored keys
// are shed in the tailored class, which takes the slot itself; a
// release-plan build takes a slot too and is shed the same way.
func TestEngineShedsWhenSaturated(t *testing.T) {
	e, hold := newHeldEngine(t, "tailored", Config{MaxInFlightSolves: 1})
	occupant := tailoredAsync(context.Background(), e, 6, big.NewRat(1, 2))
	<-hold.started

	start := time.Now()
	for _, alpha := range []*big.Rat{big.NewRat(2, 3), big.NewRat(1, 3)} {
		if _, err := e.TailoredCtx(context.Background(), absConsumer(), 6, alpha); !errors.Is(err, ErrSaturated) {
			t.Fatalf("saturated TailoredCtx(α=%s) err = %v, want ErrSaturated", alpha.RatString(), err)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("shed took %v, want fast-fail", elapsed)
	}
	if _, err := e.ReleasePlan(6, []*big.Rat{big.NewRat(1, 3), big.NewRat(1, 2)}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated ReleasePlan err = %v, want ErrSaturated", err)
	}
	m := e.Metrics()
	if m.Interactions.Requests != 0 || m.Tailored.Shed != 2 || m.Plans.Shed != 1 {
		t.Errorf("interactions requests %d, shed counts: tailored %d, plans %d; want 0, 2, 1",
			m.Interactions.Requests, m.Tailored.Shed, m.Plans.Shed)
	}
	if m.InFlightSolves != 1 {
		t.Errorf("in-flight solves = %d, want 1", m.InFlightSolves)
	}

	hold.free()
	if err := <-occupant; err != nil {
		t.Errorf("occupying solve: %v", err)
	}
	waitFor(t, func() bool { return e.Metrics().InFlightSolves == 0 })
}

// --- observability --------------------------------------------------------

// TestLatencyHistogramRecordsSolves: a completed solve lands in
// exactly one histogram bucket; shape matches the JSON contract.
func TestLatencyHistogramRecordsSolves(t *testing.T) {
	e := newEngine(t, Config{})
	if _, err := e.TailoredMechanism(absConsumer(), 6, big.NewRat(1, 2)); err != nil {
		t.Fatal(err)
	}
	h := e.Metrics().Tailored.ComputeLatency
	if len(h.Counts) != histBuckets || len(h.BoundsNanos) != histBuckets-1 {
		t.Fatalf("histogram shape = %d counts / %d bounds, want %d/%d",
			len(h.Counts), len(h.BoundsNanos), histBuckets, histBuckets-1)
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total != 1 {
		t.Errorf("histogram total = %d, want 1 observation", total)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	var h histogram
	h.observe(50 * time.Microsecond)  // bucket 0 (≤100µs)
	h.observe(100 * time.Microsecond) // bucket 0 (inclusive bound)
	h.observe(5 * time.Millisecond)   // bucket 2 (≤10ms)
	h.observe(time.Minute)            // overflow bucket
	s := h.snapshot()
	want := []uint64{2, 0, 1, 0, 0, 0, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (full: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
}

// TestTraceEventSequence: cold then warm requests emit
// miss → solve-start → solve-done, then hit.
func TestTraceEventSequence(t *testing.T) {
	var mu sync.Mutex
	var kinds []TraceKind
	e := newEngine(t, Config{Trace: func(ev TraceEvent) {
		if ev.Artifact != "mechanisms" {
			return
		}
		mu.Lock()
		kinds = append(kinds, ev.Kind)
		mu.Unlock()
	}})
	if _, err := e.Geometric(8, big.NewRat(1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Geometric(8, big.NewRat(1, 2)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []TraceKind{TraceMiss, TraceSolveStart, TraceSolveDone, TraceHit}
	if len(kinds) != len(want) {
		t.Fatalf("trace kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("trace kinds = %v, want %v", kinds, want)
		}
	}
}

// --- unified sampler ------------------------------------------------------

func TestSamplerSpecGeometricCached(t *testing.T) {
	e := newEngine(t, Config{})
	s1, err := e.Sampler(context.Background(), SamplerSpec{N: 16, Alpha: big.NewRat(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if s1.N() != 16 {
		t.Fatalf("N = %d, want 16", s1.N())
	}
	// A second spec with equal parameters must view the same cached G:
	// equal α in another representation shares its tables.
	s2, err := e.Sampler(context.Background(), SamplerSpec{N: 16, Alpha: big.NewRat(2, 4)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= s1.N(); i++ {
		if s1.m.AliasRow(i) != s2.m.AliasRow(i) {
			t.Fatalf("row %d: equal SamplerSpecs built separate tables", i)
		}
	}
	if m := e.Metrics().Mechanisms.Cache; m.Misses != 1 || m.Hits != 1 {
		t.Errorf("mechanisms cache = %+v, want one miss and one hit", m)
	}
}

func TestSamplerSpecMechanismUncached(t *testing.T) {
	e := newEngine(t, Config{})
	g, err := e.Geometric(8, big.NewRat(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Sampler(context.Background(), SamplerSpec{Mechanism: g})
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Sample(3); r < 0 || r > 8 {
		t.Errorf("sample %d out of range [0,8]", r)
	}
}

func TestSamplerSpecValidation(t *testing.T) {
	e := newEngine(t, Config{})
	g, err := e.Geometric(4, big.NewRat(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Sampler(context.Background(), SamplerSpec{Mechanism: g, Alpha: big.NewRat(1, 2)}); err == nil {
		t.Error("SamplerSpec with both Mechanism and Alpha accepted")
	}
	if _, err := e.Sampler(context.Background(), SamplerSpec{N: 4}); err == nil {
		t.Error("SamplerSpec with neither Mechanism nor Alpha accepted")
	}
}

// --- helpers --------------------------------------------------------------

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 10s")
}

// --- LP domain cap --------------------------------------------------------

// TestLPDomainCap: every LP-backed route fails fast with
// ErrDomainTooLarge above Config.MaxLPDomainN, and the non-LP routes
// are unaffected.
func TestLPDomainCap(t *testing.T) {
	e := newEngine(t, Config{MaxLPDomainN: 4})
	c := absConsumer()
	half := big.NewRat(1, 2)

	if _, err := e.TailoredCtx(context.Background(), c, 5, half); !errors.Is(err, ErrDomainTooLarge) {
		t.Errorf("TailoredCtx(n=5) err = %v, want ErrDomainTooLarge", err)
	}
	if _, err := e.CompareCtx(context.Background(), CompareSpec{N: 5, Alpha: half, Model: c}); !errors.Is(err, ErrDomainTooLarge) {
		t.Errorf("CompareCtx(n=5) err = %v, want ErrDomainTooLarge", err)
	}
	if _, err := e.TailoredCtx(context.Background(), c, 4, half); err != nil {
		t.Errorf("TailoredCtx(n=4) under the cap failed: %v", err)
	}
	// Geometric is a matrix artifact, not LP-backed: no cap.
	if _, err := e.Geometric(5, half); err != nil {
		t.Errorf("Geometric(n=5) hit the LP cap: %v", err)
	}
}
