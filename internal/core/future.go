package core

import (
	"context"
	"fmt"
	"sync"
)

// maxInlineDepth bounds how many continuation frames run nested on one
// completion delivery before the chain hops to the overflow executor. The
// bound keeps completion-path latency predictable and the stack shallow: a
// reply that resolves a Then chain runs the first few links inline on the
// mux reader and ships the rest elsewhere.
const maxInlineDepth = 8

// futureSub is one registered continuation. depth counts the inline
// continuation frames already below it on the delivering stack.
type futureSub func(val any, err error, depth int)

// Future is the handle of an asynchronous call with a result. It is a
// completion-driven promise: the party that resolves it (the mux reader on
// reply arrival, for remote calls) runs the registered continuations
// directly, except a local mailbox, which hands them to exec (see
// Proxy.InvokeAsyncCtx). A pending future parks no goroutine, and ten
// thousand outstanding calls cost ten thousand heap objects, not ten
// thousand stacks. Waiting (Get) lazily materialises a done channel;
// chaining (ThenAny / OnComplete) does not.
type Future struct {
	// exec runs continuations that overflowed the inline depth bound; nil
	// means a fresh goroutine. Inherited by derived futures.
	exec func(func())

	mu        sync.Mutex
	completed bool
	val       any
	err       error
	done      chan struct{} // lazily created; closed on completion
	subs      []futureSub
}

// NewPromise returns an unresolved Future and its resolver. The resolver
// completes the future exactly once (later calls are ignored) and runs the
// registered continuations on the calling goroutine, up to the inline
// depth bound. It is the building block of the parc combinators.
func NewPromise() (*Future, func(any, error)) {
	f := &Future{}
	return f, f.complete
}

// ResolvedFuture returns a future already completed with (v, err).
func ResolvedFuture(v any, err error) *Future {
	return &Future{completed: true, val: v, err: err}
}

// complete resolves the future at depth 0.
func (f *Future) complete(v any, err error) { f.completeAt(v, err, 0) }

// completeAt resolves the future and delivers to every registered
// continuation, threading the inline-depth budget through the chain. First
// completion wins; the rest are no-ops (a future fed by both a reply and a
// cancellation hook needs exactly this).
func (f *Future) completeAt(v any, err error, depth int) {
	f.mu.Lock()
	if f.completed {
		f.mu.Unlock()
		return
	}
	f.completed = true
	f.val, f.err = v, err
	subs := f.subs
	f.subs = nil
	done := f.done
	f.mu.Unlock()
	if done != nil {
		close(done)
	}
	for _, s := range subs {
		f.runSub(s, depth)
	}
}

// runSub invokes one continuation: inline while the depth budget lasts,
// otherwise on the overflow executor (the runtime's thread pool when one
// is configured and has room, a fresh goroutine otherwise).
func (f *Future) runSub(s futureSub, depth int) {
	if depth < maxInlineDepth {
		s(f.val, f.err, depth)
		return
	}
	v, err := f.val, f.err
	hop := func() { s(v, err, 0) }
	if f.exec != nil {
		f.exec(hop)
		return
	}
	go hop()
}

// subscribe registers a continuation, running it immediately (depth 0, on
// the caller) when the future is already resolved — Then after completion
// behaves exactly like Then before it.
func (f *Future) subscribe(s futureSub) {
	f.mu.Lock()
	if !f.completed {
		f.subs = append(f.subs, s)
		f.mu.Unlock()
		return
	}
	f.mu.Unlock()
	f.runSub(s, 0)
}

// expireOn resolves f with ctx.Err() as soon as ctx ends, for a call that
// waits behind others (in a mailbox, or on a proxy's ordered lane) and
// whose own outcome may come much later. The returned stop detaches the
// hook once that outcome arrives.
func (f *Future) expireOn(ctx context.Context) (stop func() bool) {
	if ctx.Done() == nil {
		return func() bool { return false }
	}
	return context.AfterFunc(ctx, func() { f.complete(nil, ctx.Err()) })
}

// OnComplete registers fn to run with the future's outcome: immediately if
// already resolved, on the completion path otherwise. fn must not block —
// for remote calls the completion path is the connection's reader
// goroutine, shared by every caller on that lane.
func (f *Future) OnComplete(fn func(any, error)) {
	f.subscribe(func(v any, err error, _ int) { fn(v, err) })
}

// ThenAny returns a future resolved by fn applied to this future's
// outcome. fn runs on the completion path (bounded inline depth, overflow
// to the pool); a panic inside it resolves the derived future with an
// error instead of unwinding the deliverer. Typed chaining lives in the
// parc package (Then / Catch); this is their dynamically typed engine.
func (f *Future) ThenAny(fn func(any, error) (any, error)) *Future {
	child := &Future{exec: f.exec}
	f.subscribe(func(v any, err error, depth int) {
		cv, cerr := runContinuation(fn, v, err)
		child.completeAt(cv, cerr, depth+1)
	})
	return child
}

// runContinuation applies fn with panic containment: the deliverer (a
// shared reader goroutine) must survive any user continuation.
func runContinuation(fn func(any, error) (any, error), v any, err error) (rv any, rerr error) {
	defer func() {
		if p := recover(); p != nil {
			rerr = fmt.Errorf("core: continuation panic: %v", p)
		}
	}()
	return fn(v, err)
}

// Done returns a channel closed on completion.
func (f *Future) Done() <-chan struct{} {
	f.mu.Lock()
	if f.done == nil {
		f.done = make(chan struct{})
		if f.completed {
			close(f.done)
		}
	}
	d := f.done
	f.mu.Unlock()
	return d
}

// Get blocks until the call completes.
func (f *Future) Get() (any, error) {
	f.mu.Lock()
	if f.completed {
		v, err := f.val, f.err
		f.mu.Unlock()
		return v, err
	}
	f.mu.Unlock()
	<-f.Done()
	// The close happens after val/err were written under mu, so this read
	// is ordered after them.
	return f.val, f.err
}

// GetCtx blocks until the call completes or ctx ends, in which case it
// returns ctx.Err() (the call itself keeps running; a later Get still
// observes its outcome).
func (f *Future) GetCtx(ctx context.Context) (any, error) {
	if ctx == nil || ctx.Done() == nil {
		return f.Get()
	}
	select {
	case <-f.Done():
		return f.val, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
