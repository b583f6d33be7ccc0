package ctxwait

import (
	"context"
	"sync"
)

// Waiter is the rendezvous of a synchronous caller whose call completes
// through a callback: Done is that callback and Wait blocks for what it
// received. Done is bound once per Waiter, so handing it to a call
// allocates nothing; with a Pool the whole rendezvous is reused, which
// keeps a synchronous call on a callback-completed path as cheap as one
// that parks on a channel of its own.
type Waiter[T any] struct {
	c    chan outcome[T]
	Done func(T, error)
}

type outcome[T any] struct {
	v   T
	err error
}

// Wait blocks until Done has run or ctx ends. ok is false when ctx ended
// first; err is then ctx.Err() and Done may still run later.
func (w *Waiter[T]) Wait(ctx context.Context) (v T, ok bool, err error) {
	select {
	case o := <-w.c:
		return o.v, true, o.err
	case <-ctx.Done():
		return v, false, ctx.Err()
	}
}

// Pool recycles Waiters. Return a Waiter only once its outcome has been
// received, or once the call it was handed to is known never to call
// Done: a Waiter whose caller gave up may still receive a late outcome.
type Pool[T any] struct {
	p sync.Pool
}

// Get returns an idle Waiter.
func (p *Pool[T]) Get() *Waiter[T] {
	if w, ok := p.p.Get().(*Waiter[T]); ok {
		return w
	}
	w := &Waiter[T]{c: make(chan outcome[T], 1)}
	w.Done = func(v T, err error) { w.c <- outcome[T]{v, err} }
	return w
}

// Put returns w for reuse; see Pool for when that is allowed.
func (p *Pool[T]) Put(w *Waiter[T]) { p.p.Put(w) }
