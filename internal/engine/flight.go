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
// runs on its own goroutine under a context that is canceled only
// when *every* waiter has gone away.
//
// That detachment gives the cancellation semantics the serving layer
// needs:
//
//   - a waiter whose own ctx is canceled returns ctx.Err()
//     immediately, without killing the shared computation for the
//     waiters that remain;
//   - when the last waiter detaches, the computation's context is
//     canceled, so a solve nobody wants anymore aborts at its next
//     cancellation checkpoint instead of burning CPU to fill a cache
//     entry nobody asked to keep;
//   - an abandoned call is retired from the group immediately, so the
//     next request for the key starts a fresh computation rather than
//     joining a dying one.
//
// Results are not retained after the call completes — long-term
// storage is the cache's job; the flight group only spans the window
// in which duplicate work could start.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done    chan struct{}
	val     any
	err     error
	waiters int                // guarded by flightGroup.mu
	cancel  context.CancelFunc // cancels the computation's context
}

// do returns the shared result for key, running fn at most once per
// in-flight window. fn receives the detached computation context
// described on flightGroup. The returned started flag reports whether
// this call began the computation (true) or was coalesced onto one
// already in flight (false).
func (g *flightGroup) do(ctx context.Context, key string, fn func(context.Context) (any, error)) (val any, started bool, err error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		c.waiters++
		g.mu.Unlock()
		return g.wait(ctx, key, c, false)
	}
	solveCtx, cancel := context.WithCancel(context.Background())
	c := &flightCall{done: make(chan struct{}), cancel: cancel, waiters: 1}
	g.calls[key] = c
	g.mu.Unlock()

	go func() {
		c.val, c.err = fn(solveCtx)
		cancel()
		// Retire the call before releasing its waiters: a waiter that
		// returns and asks for the key again must start afresh, not
		// join this finished call. The call may already have been
		// retired by the last waiter detaching (and a fresh call
		// registered since); only remove our own entry.
		g.mu.Lock()
		if g.calls[key] == c {
			delete(g.calls, key)
		}
		g.mu.Unlock()
		close(c.done)
	}()
	return g.wait(ctx, key, c, true)
}

// wait blocks until the call completes or ctx is canceled. The last
// waiter to detach cancels the computation and retires the call so a
// later request for the key starts fresh.
func (g *flightGroup) wait(ctx context.Context, key string, c *flightCall, started bool) (any, bool, error) {
	select {
	case <-c.done:
		return c.val, started, c.err
	case <-ctx.Done():
		g.mu.Lock()
		c.waiters--
		if c.waiters == 0 {
			c.cancel()
			if g.calls[key] == c {
				delete(g.calls, key)
			}
		}
		g.mu.Unlock()
		return nil, started, ctx.Err()
	}
}
