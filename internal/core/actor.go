package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/ctxwait"
	"repro/internal/dispatch"
	"repro/internal/errs"
)

// errActorStopped is returned for calls posted after the actor shut down.
var errActorStopped = fmt.Errorf("core: %w", errs.ErrObjectDestroyed)

// errActorMigrating rejects a second concurrent migration of one actor;
// the pause flag doubles as the per-object migration claim.
var errActorMigrating = fmt.Errorf("core: migration already in progress")

// actor gives a locally hosted parallel object its own thread of control:
// calls enqueue into a mailbox processed in order by one goroutine,
// providing the active-object semantics of SCOOPP parallel objects while
// intra-grain callers continue immediately (paper Fig. 3 call b executed
// asynchronously).
type actor struct {
	w *ioWrapper
	// bound caps the queued (not executing) tasks; 0 = unbounded. shed
	// picks the victim when the bound is hit (see Config.MailboxBound).
	bound int
	shed  ShedPolicy

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []actorTask
	stopped bool
	pending int
	// paused blocks new enqueues (migration: the mailbox drains while
	// callers wait); moved, once set, fails every later enqueue with the
	// forward so callers re-route to the object's new node.
	paused bool
	moved  *errs.MovedError
}

// actorTask is one queued call. done, when non-nil, receives the outcome
// exactly once — on the mailbox goroutine for a task that ran or was
// skipped, on the evicting or aborting goroutine for one that never ran —
// so it must not block, and must not call into this actor synchronously.
type actorTask struct {
	ctx    context.Context // caller's context; nil means background
	method string
	args   []any
	batch  []any // non-nil for aggregate messages
	done   func(any, error)
}

func newActor(w *ioWrapper) *actor {
	a := &actor{w: w, bound: w.rt.cfg.MailboxBound, shed: w.rt.cfg.Shed}
	a.cond = sync.NewCond(&a.mu)
	go a.run()
	return a
}

func (a *actor) run() {
	for {
		a.mu.Lock()
		for len(a.queue) == 0 && !a.stopped {
			a.cond.Wait()
		}
		if len(a.queue) == 0 && a.stopped {
			a.queue = nil
			a.mu.Unlock()
			return
		}
		// Clear the slot before reslicing: the backing array outlives
		// the dequeue, and a stale task would pin its args (possibly a
		// borrowed request frame) for as long as the actor is reachable.
		t := a.queue[0]
		a.queue[0] = actorTask{}
		a.queue = a.queue[1:]
		a.mu.Unlock()
		a.w.rt.queuedTasks.Add(-1)

		ctx := t.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		var val any
		err := ctx.Err()
		if err != nil {
			// The caller gave up while the task sat in the mailbox:
			// skip execution, matching what a context-aware method
			// would do on entry. An expired deadline is counted as a
			// dequeue-time drop — work the server admitted but could
			// not start in time.
			if errors.Is(err, context.DeadlineExceeded) {
				a.w.rt.stats.deadlineDrops.Add(1)
			}
		} else if t.batch != nil {
			_, err = a.w.InvokeBatch(ctx, t.method, t.batch)
		} else {
			val, err = a.w.Invoke1(ctx, t.method, t.args)
		}
		if t.done != nil {
			t.done(val, err)
		}

		a.mu.Lock()
		a.pending--
		if a.pending == 0 {
			a.cond.Broadcast()
		}
		a.mu.Unlock()
	}
}

// enqueue adds a task; done may be nil for fire-and-forget. While the
// actor is paused for migration, enqueue blocks — bounded by the task's
// context when it carries one; once the object has moved it fails with
// the forward (a *errs.MovedError) instead, so a blocked caller comes out
// of the pause routed to the new node.
func (a *actor) enqueue(t actorTask) error {
	a.mu.Lock()
	if a.paused && a.moved == nil && !a.stopped && t.ctx != nil && t.ctx.Done() != nil {
		// Wake this waiter when the caller's context ends; Broadcast is
		// how every pause-state transition is announced.
		stop := context.AfterFunc(t.ctx, func() {
			a.mu.Lock()
			a.cond.Broadcast()
			a.mu.Unlock()
		})
		defer stop()
	}
	for a.paused && a.moved == nil && !a.stopped {
		if t.ctx != nil {
			if err := t.ctx.Err(); err != nil {
				a.mu.Unlock()
				return err
			}
		}
		a.cond.Wait()
	}
	if a.moved != nil {
		mv := a.moved
		a.mu.Unlock()
		return mv
	}
	if a.stopped {
		a.mu.Unlock()
		return errActorStopped
	}
	var evicted actorTask
	shedOldest := false
	if a.bound > 0 && len(a.queue) >= a.bound {
		if a.shed != ShedOldest {
			a.mu.Unlock()
			a.w.rt.noteShed()
			return errs.WithRetryAfter(
				fmt.Errorf("core: mailbox full (%d queued): %w", a.bound, errs.ErrOverloaded),
				shedRetryAfter)
		}
		// ShedOldest: evict the head task to make room; its caller is
		// failed outside the lock.
		evicted, shedOldest = a.queue[0], true
		a.queue[0] = actorTask{}
		a.queue = a.queue[1:]
		a.pending--
		a.w.rt.queuedTasks.Add(-1)
	}
	a.queue = append(a.queue, t)
	a.pending++
	a.w.rt.queuedTasks.Add(1)
	a.cond.Broadcast()
	a.mu.Unlock()
	if shedOldest {
		a.w.rt.noteShed()
		if evicted.done != nil {
			evicted.done(nil, errs.WithRetryAfter(
				fmt.Errorf("core: evicted from full mailbox (%d queued): %w", a.bound, errs.ErrOverloaded),
				shedRetryAfter))
		}
	}
	return nil
}

// pause claims the actor for a migration — at most one at a time; the
// paused flag is the claim — and blocks until every queued task has
// executed, the quiescence point the migration snapshots at. The claim is
// refused when the actor is already claimed, moved or stopped, and the
// wait aborts (rolling the claim back) when ctx ends — a task that never
// finishes, for example one blocked posting into its own paused mailbox,
// fails the migration instead of deadlocking it — or when a racing
// destroy stops the actor. Balanced by resume (migration failed) or
// markMoved (succeeded).
func (a *actor) pause(ctx context.Context) error {
	a.mu.Lock()
	switch {
	case a.moved != nil:
		mv := a.moved
		a.mu.Unlock()
		return mv
	case a.stopped:
		a.mu.Unlock()
		return errActorStopped
	case a.paused:
		a.mu.Unlock()
		return errActorMigrating
	}
	a.paused = true
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			a.mu.Lock()
			a.cond.Broadcast()
			a.mu.Unlock()
		})
		defer stop()
	}
	for a.pending > 0 && !a.stopped {
		if err := ctx.Err(); err != nil {
			a.paused = false
			a.cond.Broadcast()
			a.mu.Unlock()
			return err
		}
		a.cond.Wait()
	}
	if a.stopped {
		// A destroy won the race: the object must not be resurrected
		// elsewhere from a snapshot of its corpse.
		a.paused = false
		a.cond.Broadcast()
		a.mu.Unlock()
		return errActorStopped
	}
	a.mu.Unlock()
	return nil
}

// resume reopens a paused mailbox.
func (a *actor) resume() {
	a.mu.Lock()
	a.paused = false
	a.cond.Broadcast()
	a.mu.Unlock()
}

// markMoved terminates a paused actor after a successful migration:
// callers blocked in enqueue (and all future enqueues) fail with the
// forward, and the mailbox goroutine exits.
func (a *actor) markMoved(mv *errs.MovedError) {
	a.mu.Lock()
	a.moved = mv
	a.paused = false
	a.stopped = true
	a.cond.Broadcast()
	a.mu.Unlock()
}

// abort terminates an actor whose state the cluster has moved past (a
// stale copy being demoted after a failover promotion): unlike markMoved
// it does not wait for the queue to drain — queued tasks would execute
// against superseded state and their effects silently vanish — but fails
// every queued task with the forward so its caller re-routes and retries
// at the fresh copy. The task executing at this instant (if any) still
// completes; its caller received — or will receive — a reply computed on
// state one failover behind, the unavoidable window of asynchronous
// supersession.
func (a *actor) abort(mv *errs.MovedError) {
	a.mu.Lock()
	a.moved = mv
	a.paused = false
	a.stopped = true
	queue := a.queue
	a.pending -= len(queue)
	a.w.rt.queuedTasks.Add(int64(-len(queue)))
	a.queue = nil
	a.cond.Broadcast()
	a.mu.Unlock()
	for _, t := range queue {
		if t.done != nil {
			t.done(nil, mv)
		}
	}
}

// callWaiters recycles the rendezvous of synchronous mailbox callers.
var callWaiters ctxwait.Pool[any]

// callCtx performs a synchronous invocation through the mailbox,
// preserving order with earlier asynchronous posts.
func (a *actor) callCtx(ctx context.Context, method string, args []any) (any, error) {
	return a.await(actorTask{ctx: ctx, method: method, args: args})
}

// await enqueues t and blocks for its outcome. If ctx ends before the
// mailbox reaches the task, the caller unblocks with ctx.Err() and the
// task is skipped when its turn comes.
func (a *actor) await(t actorTask) (any, error) {
	if t.ctx == nil {
		t.ctx = context.Background()
	}
	w := callWaiters.Get()
	t.done = w.Done
	if err := a.enqueue(t); err != nil {
		callWaiters.Put(w)
		return nil, err
	}
	v, ok, err := w.Wait(t.ctx)
	if ok {
		callWaiters.Put(w)
	}
	return v, err
}

// post performs an asynchronous invocation; execution errors are reported
// to onErr. An enqueue-time failure (object destroyed or moved before the
// task entered the mailbox — nothing executed) is only returned, so the
// caller can re-route or record it without onErr double-reporting. A
// non-nil ctx cancels the task if it is still queued when ctx ends.
func (a *actor) post(ctx context.Context, method string, args []any, onErr func(error)) error {
	return a.enqueue(actorTask{ctx: ctx, method: method, args: args, done: func(_ any, err error) {
		if err != nil {
			onErr(err)
		}
	}})
}

// wait blocks until the mailbox is drained.
func (a *actor) wait() {
	a.mu.Lock()
	for a.pending > 0 {
		a.cond.Wait()
	}
	a.mu.Unlock()
}

// waitCtx is wait bounded by ctx; the mailbox keeps draining in the
// background when the wait is abandoned.
func (a *actor) waitCtx(ctx context.Context) error {
	return ctxwait.Drain(ctx, a.wait)
}

// stop drains the mailbox and terminates the goroutine.
func (a *actor) stop() {
	a.mu.Lock()
	a.stopped = true
	a.cond.Broadcast()
	for a.pending > 0 {
		a.cond.Wait()
	}
	a.mu.Unlock()
}

// actorEndpoint adapts an actor to the remoting dispatcher so remote
// callers share the mailbox (and therefore the ordering) of local callers.
// The ctx parameters receive the server-side request context, carrying the
// remote caller's deadline into the mailbox wait.
type actorEndpoint struct {
	a *actor
}

// Invoke1 executes one invocation through the mailbox.
func (e *actorEndpoint) Invoke1(ctx context.Context, method string, args []any) (any, error) {
	return e.a.callCtx(ctx, method, args)
}

// InvokeBatch replays an aggregate message through the mailbox as a single
// task, so a batch executes atomically with respect to other calls.
func (e *actorEndpoint) InvokeBatch(ctx context.Context, method string, calls []any) (int, error) {
	if _, err := e.a.await(actorTask{ctx: ctx, method: method, batch: calls}); err != nil {
		return 0, err
	}
	return len(calls), nil
}

// endpoint is what the remoting server calls on a hosted object: the actor
// endpoint, the IO wrapper of an object served without an actor, and the
// tombstone a migration leaves behind.
type endpoint interface {
	Invoke1(ctx context.Context, method string, args []any) (any, error)
	InvokeBatch(ctx context.Context, method string, calls []any) (int, error)
}

// The endpoints get typed invoker thunks so the server's per-request
// goroutine reaches the mailbox without reflect.Value.Call, whose frame
// setup would grow that fresh goroutine's stack on every request.
func init() {
	registerEndpoint[*actorEndpoint]()
	registerEndpoint[*ioWrapper]()
	registerEndpoint[*tombstone]()
}

func registerEndpoint[E endpoint]() {
	var sample E
	dispatch.RegisterInvokers(sample, map[string]dispatch.Invoker{
		"Invoke1": func(ctx context.Context, obj any, args []any) (any, error) {
			method, margs, err := endpointArgs(obj, "Invoke1", args)
			if err != nil {
				return nil, err
			}
			v, err := obj.(E).Invoke1(ctx, method, margs)
			if err != nil {
				return nil, err
			}
			return v, nil
		},
		"InvokeBatch": func(ctx context.Context, obj any, args []any) (any, error) {
			method, calls, err := endpointArgs(obj, "InvokeBatch", args)
			if err != nil {
				return nil, err
			}
			n, err := obj.(E).InvokeBatch(ctx, method, calls)
			if err != nil {
				return nil, err
			}
			return n, nil
		},
	})
}

// endpointArgs binds the (method string, args []any) wire arguments both
// endpoint methods take.
func endpointArgs(obj any, name string, args []any) (string, []any, error) {
	if len(args) != 2 {
		return "", nil, dispatch.BadArity(obj, name, len(args), 2)
	}
	method, err := dispatch.Arg[string](args, 0)
	if err != nil {
		return "", nil, dispatch.BadArg(obj, name, 0, err)
	}
	rest, err := dispatch.Arg[[]any](args, 1)
	if err != nil {
		return "", nil, dispatch.BadArg(obj, name, 1, err)
	}
	return method, rest, nil
}
