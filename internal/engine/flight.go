package engine

import (
	"context"
	"sync"
)

// flightGroup coalesces concurrent computations of the same key:
// while one computation runs, every goroutine asking for the same key
// waits for it and shares its result. This is the classic
// "singleflight" pattern, implemented in-package because the module
// is stdlib-only — with one serving-grade refinement: the computation
// runs on its own goroutine under root, the engine-owned context, not
// under any caller's.
//
// A caller's ctx therefore bounds only its own wait. A caller whose
// ctx ends returns ctx.Err() at once, and the computation runs on to
// completion whoever is still waiting, so a retry joins it while it
// runs and finds its result cached once it is done. Only canceling
// root (Engine.Close) stops a running computation.
//
// Results are not retained after the call completes — long-term
// storage is the cache's job; the flight group only spans the window
// in which duplicate work could start.
type flightGroup struct {
	root    context.Context // every computation runs under it
	running sync.WaitGroup  // one count per computation goroutine
	mu      sync.Mutex
	calls   map[string]*flightCall
	closed  bool // set by closeAndWait: no new computation starts
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// do returns the shared result for key, running fn under g.root at
// most once per in-flight window. The returned started flag reports
// whether this call began the computation (true) or was coalesced
// onto one already in flight (false). After closeAndWait, a key with
// no running computation fails with root's error.
func (g *flightGroup) do(ctx context.Context, key string, fn func(context.Context) (any, error)) (val any, started bool, err error) {
	g.mu.Lock()
	c, joined := g.calls[key]
	if !joined {
		if g.closed {
			g.mu.Unlock()
			return nil, true, g.root.Err()
		}
		if g.calls == nil {
			g.calls = make(map[string]*flightCall)
		}
		c = &flightCall{done: make(chan struct{})}
		g.calls[key] = c
		g.running.Add(1)
		go func() {
			defer g.running.Done()
			c.val, c.err = fn(g.root)
			// Retire the call before releasing its waiters: a waiter
			// that returns and asks for the key again must start afresh
			// (or hit the cache), not join this finished call.
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
			close(c.done)
		}()
	}
	g.mu.Unlock()
	select {
	case <-c.done:
		return c.val, !joined, c.err
	case <-ctx.Done():
		return nil, !joined, ctx.Err()
	}
}

// closeAndWait stops the group from starting computations and waits
// for the running ones, which the caller has canceled through root.
// Adds happen under mu only while the group is open, so none races
// the Wait.
func (g *flightGroup) closeAndWait() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.running.Wait()
}
